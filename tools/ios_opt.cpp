// ios_opt: command-line driver for the IOS scheduler, built on the
// ios::Optimizer facade.
//
// Optimize a zoo model for a device/batch and report latencies:
//   ios_opt optimize --model inception_v3 --device v100 --batch 1
// Persist the found schedule as a reusable recipe, plus visualizations:
//   ios_opt optimize --model squeezenet --save recipe.json
//       --dot schedule.dot --trace timeline.json
// Re-evaluate a saved recipe (e.g. on another device or batch size):
//   ios_opt evaluate --recipe recipe.json --device k80
// Serve a synthetic multi-model request trace through the dynamic batcher:
//   ios_opt serve --models squeezenet,inception_v3 --workers 4 --rate 2000
// Serve on a heterogeneous device pool (device-aware routing):
//   ios_opt serve --models squeezenet,resnet34 --devices p100,1080ti
// Run the serving engine as a real TCP daemon (line-delimited JSON):
//   ios_opt daemon --port 7411 --models squeezenet --devices v100x2
// Fire a synthetic trace at a running daemon and report wall latencies:
//   ios_opt fire --port 7411 --models squeezenet --requests 200 --rate 500
// Place a weighted workload across a heterogeneous pool:
//   ios_opt place --devices p100,1080tix2 --models squeezenet,resnet34
//       --batches 1,8 --weights 6,1 --json plan.json
// Plan and serve a hierarchical fleet with failure injection:
//   ios_opt fleet --topology "rack:2{node:4{v100x8}}" --models squeezenet
//       --kills 4 --requests 2000
// Show model facts (Table 1/2 style):
//   ios_opt inspect --model nasnet
// Enumerate registered models, devices, and baselines:
//   ios_opt list

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/optimizer.hpp"
#include "core/analysis.hpp"
#include "models/models.hpp"
#include "net/daemon.hpp"
#include "net/fault.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "fleet/sim.hpp"
#include "place/placer.hpp"
#include "runtime/trace_export.hpp"
#include "serve/server.hpp"
#include "util/names.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace ios;

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: ios_opt <command> [--key value]...\n"
               "\n"
               "commands:\n"
               "  optimize   run the IOS search and compare against baselines\n"
               "             --model NAME | --batch N | --device NAME |\n"
               "             --variant both|parallel|merge | --r N | --s N |\n"
               "             --engine auto|serial|wave | --threads N |\n"
               "             --prune exact|dominance|beam[:WIDTH] |\n"
               "             --cross-reuse 0|1 (share stage latencies and\n"
               "             block layouts across models/batches) |\n"
               "             --profile-db FILE | --baselines a,b,... |\n"
               "             --print 1 | --save FILE | --dot FILE |\n"
               "             --trace FILE\n"
               "  evaluate   execute a saved recipe\n"
               "             --recipe FILE [--device NAME] [--batch N]\n"
               "  serve      replay a synthetic request trace through the\n"
               "             dynamic batcher + sharded recipe cache\n"
               "             --models a,b,... | --device NAME |\n"
               "             --devices POOL (e.g. v100,k80x2; device-aware\n"
               "             routing, overrides --device/--workers) |\n"
               "             --workers N |\n"
               "             --requests N | --rate REQ_PER_S | --seed N |\n"
               "             --phases N@RATE,... (non-stationary trace;\n"
               "             overrides --requests/--rate) |\n"
               "             --batch-sizes a,b,... | --max-delay-us T |\n"
               "             --shards N | --capacity N | --prewarm 0|1 |\n"
               "             --profile-db FILE | --cross-reuse 0|1 |\n"
               "             --slo model=SLO_US[:PRIORITY],... |\n"
               "             --default-slo-us T | --default-priority N |\n"
               "             --shed 0|1 | --starvation-us T | --adaptive 0|1\n"
               "  daemon     run the serving engine as a TCP daemon on\n"
               "             127.0.0.1 (newline-delimited JSON protocol;\n"
               "             SIGTERM/SIGINT drains gracefully)\n"
               "             --port N (0 = ephemeral) | --config FILE |\n"
               "             --models a,b,... (prewarm) | --device NAME |\n"
               "             --devices POOL | --workers N |\n"
               "             --batch-sizes a,b,... | --max-delay-us T |\n"
               "             --shards N | --capacity N | --profile-db FILE |\n"
               "             --max-pending N | --time-scale X |\n"
               "             --io-threads N | --prewarm-threads N |\n"
               "             --slo model=SLO_US[:PRIORITY],... |\n"
               "             --default-slo-us T | --default-priority N |\n"
               "             --shed 0|1 | --starvation-us T | --adaptive 0|1 |\n"
               "             --idle-timeout-us T | --write-timeout-us T |\n"
               "             --max-line-bytes N | --stuck-grace-us T |\n"
               "             --watchdog-interval-us T | --chaos 0|1 (enable\n"
               "             kill_worker/stall_worker verbs) | --stats-json\n"
               "             FILE (dump counters on drain)\n"
               "  fire       replay a synthetic trace against a running\n"
               "             daemon and report client-observed latencies\n"
               "             --port N | --host ADDR | --models a,b,... |\n"
               "             --requests N | --rate REQ_PER_S | --seed N |\n"
               "             --phases N@RATE,... |\n"
               "             --deadline-us T (per-request deadline; 0=off) |\n"
               "             --retries N | --backoff-us T |\n"
               "             --fault-seed N | --torn-prob P | --stall-prob P |\n"
               "             --stall-us T | --disconnect-prob P |\n"
               "             --refuse-prob P (client-side fault injection)\n"
               "  admin      send one control request to a running daemon and\n"
               "             print the raw response line\n"
               "             --port N | --host ADDR |\n"
               "             --cmd ping|stats|health|kill_worker|stall_worker |\n"
               "             --worker N | --stall-us T\n"
               "  place      optimize a workload per pool device class and\n"
               "             print the placement plan (routing + splits)\n"
               "             --devices POOL | --models a,b,... |\n"
               "             --batches a,b,... | --weights a,b,... |\n"
               "             --splits 0|1 | --profile-db FILE | --json FILE\n"
               "  fleet      plan a hierarchical fleet (racks/nodes) and\n"
               "             replay a trace with deterministic failure\n"
               "             injection (worker kills, requeue, re-plan)\n"
               "             --topology SPEC (e.g. rack:2{node:4{v100x8}}) |\n"
               "             --models a,b,... | --batches a,b,... |\n"
               "             --weights a,b,... | --replicas N |\n"
               "             --requests N | --rate REQ_PER_S | --seed N |\n"
               "             --kills N | --mtbf-us T | --first-kill-us T |\n"
               "             --kill-seed N | --batch-sizes a,b,... |\n"
               "             --max-delay-us T | --profile-db FILE |\n"
               "             --json FILE\n"
               "  inspect    print model facts (Table 1/2 style)\n"
               "             --model NAME [--batch N] [--print 1]\n"
               "  list       enumerate known models, devices, and baselines\n"
               "  help       show this message\n");
}

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  std::optional<std::string> get(const std::string& key) const {
    const auto it = options.find(key);
    if (it == options.end()) return std::nullopt;
    return it->second;
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc < 2) throw std::runtime_error("missing command");
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::runtime_error("expected --key value pairs, got '" + flag +
                               "'");
    }
    const std::string key = flag.substr(2);
    if (args.options.count(key)) {
      throw std::runtime_error("duplicate flag '--" + key + "'");
    }
    args.options[key] = argv[++i];
  }
  return args;
}

IosVariant variant_from(const std::string& s) {
  if (s == "both") return IosVariant::kBoth;
  if (s == "parallel") return IosVariant::kParallel;
  if (s == "merge") return IosVariant::kMerge;
  throw std::runtime_error("variant must be both|parallel|merge");
}

SearchEngine engine_from(const std::string& s) {
  if (s == "auto") return SearchEngine::kAuto;
  if (s == "serial") return SearchEngine::kSerial;
  if (s == "wave") return SearchEngine::kWave;
  throw std::runtime_error("engine must be auto|serial|wave");
}

std::vector<Baseline> baselines_from(const std::string& csv) {
  std::vector<Baseline> baselines;
  for (const std::string& name : split_csv(csv)) {
    baselines.push_back(baseline_by_name(name));
  }
  return baselines;
}

int cmd_optimize(const Args& args) {
  OptimizationRequest request;
  request.model = args.get("model", "inception_v3");
  request.batch = std::stoi(args.get("batch", "1"));
  request.device = args.get("device", "v100");
  request.options.variant = variant_from(args.get("variant", "both"));
  request.options.pruning.r = std::stoi(args.get("r", "3"));
  request.options.pruning.s = std::stoi(args.get("s", "8"));
  request.options.engine = engine_from(args.get("engine", "auto"));
  request.options.num_threads = std::stoi(args.get("threads", "1"));
  apply_prune_spec(request.options, args.get("prune", "exact"));
  request.cross_reuse = args.get("cross-reuse", "0") == "1";
  request.profile_db = args.get("profile-db", "");
  if (const auto csv = args.get("baselines")) {
    request.baselines = baselines_from(*csv);
  }

  std::printf("optimizing %s (batch %d) for %s with %s, pruning r=%d s=%d, "
              "%s engine, %s search threads",
              request.model.c_str(), request.batch, request.device.c_str(),
              ios_variant_name(request.options.variant),
              request.options.pruning.r, request.options.pruning.s,
              search_engine_name(request.options.engine),
              request.options.num_threads > 0
                  ? std::to_string(request.options.num_threads).c_str()
                  : "auto");
  if (request.options.prune == PruneMode::kBeam) {
    std::printf(", beam:%d prune", request.options.beam_width);
  } else if (request.options.prune != PruneMode::kExact) {
    std::printf(", %s prune", prune_mode_name(request.options.prune));
  }
  std::printf("\n");

  Optimizer optimizer;
  const OptimizationResult result = optimizer.optimize(request);

  std::printf("\n");
  for (const BaselineResult& b : result.baselines) {
    std::printf("  %-16s %8.3f ms\n", b.name.c_str(), b.latency_us / 1000);
  }
  std::printf("  %-16s %8.3f ms", "IOS", result.latency_us / 1000);
  if (const BaselineResult* seq = result.baseline("sequential")) {
    std::printf("  (%.2fx over sequential)", seq->speedup);
  }
  std::printf("\nsearch: %lld states, %lld transitions, %lld profiles, "
              "%.2f s simulated profiling, %.0f ms wall\n",
              static_cast<long long>(result.stats.states),
              static_cast<long long>(result.stats.transitions),
              static_cast<long long>(result.stats.measurements),
              result.stats.profiling_cost_us / 1e6,
              result.stats.search_wall_ms);
  if (request.options.prune != PruneMode::kExact) {
    std::printf("pruning: %lld states tightened, %lld transitions trimmed, "
                "latency gap bound %.3f us\n",
                static_cast<long long>(result.stats.pruned_states),
                static_cast<long long>(result.stats.beam_trimmed),
                result.stats.latency_gap_bound_us);
  }
  if (request.cross_reuse) {
    std::printf("cross-request reuse: %lld canonical stage hits, "
                "%lld cross-model hits, %lld block-schedule hits\n",
                static_cast<long long>(result.canonical_hits),
                static_cast<long long>(result.cross_model_hits),
                static_cast<long long>(result.block_cache_hits));
  }
  if (!request.profile_db.empty()) {
    std::printf("profile db %s: %lld stage latencies loaded, %lld saved, "
                "%lld new simulations this run\n",
                request.profile_db.c_str(),
                static_cast<long long>(result.profile_entries_loaded),
                static_cast<long long>(result.profile_entries_saved),
                static_cast<long long>(result.new_measurements));
  }

  if (const auto path = args.get("save")) {
    Optimizer::save(result, *path);
    std::printf("recipe saved to %s\n", path->c_str());
  }

  // The remaining outputs need the graph itself; rebuild it (cheap, no
  // profiling) only when one of them was requested.
  const bool print = args.get("print", "0") == "1";
  const auto dot_path = args.get("dot");
  const auto trace_path = args.get("trace");
  if (print || dot_path || trace_path) {
    const Graph g = models::build_model(request.model, request.batch);
    if (print) std::printf("\n%s", result.schedule.to_string(g).c_str());
    if (dot_path) {
      write_file(*dot_path, to_dot(g, &result.schedule));
      std::printf("graphviz dot written to %s\n", dot_path->c_str());
    }
    if (trace_path) {
      const Executor executor(
          g, ExecConfig{device_by_name(request.device), KernelModelParams{}});
      write_file(*trace_path,
                 to_chrome_trace(executor.run_schedule(result.schedule)));
      std::printf("chrome trace written to %s\n", trace_path->c_str());
    }
  }
  return 0;
}

int cmd_evaluate(const Args& args) {
  const auto path = args.get("recipe");
  if (!path) throw std::runtime_error("evaluate requires --recipe");
  const Recipe recipe = Optimizer::load(*path);

  const EvaluationResult ev = Optimizer().evaluate(
      recipe, args.get("device", ""), std::stoi(args.get("batch", "0")));
  std::printf("recipe %s (optimized for %s, batch %d)\n", path->c_str(),
              recipe.device.c_str(), recipe.batch);
  std::printf("executing on %s at batch %d: IOS %.3f ms, sequential %.3f ms "
              "(%.2fx)\n",
              ev.device.c_str(), ev.batch, ev.latency_us / 1000,
              ev.sequential_latency_us / 1000, ev.speedup);
  return 0;
}

// A --key value that must be a positive integer (rejects "--shards -1"
// before it wraps through a size_t cast).
int positive_int(const Args& args, const std::string& key,
                 const std::string& fallback) {
  const int v = std::stoi(args.get(key, fallback));
  if (v < 1) throw std::runtime_error("--" + key + " must be >= 1");
  return v;
}

// SLO flags shared by serve and daemon:
//   --slo "model=SLO_US[:PRIORITY],..." | --default-slo-us T |
//   --default-priority N | --shed 0|1 | --starvation-us T | --adaptive 0|1
void apply_slo_flags(const Args& args, serve::ServerOptions& options) {
  if (const auto csv = args.get("slo")) {
    for (const std::string& part : split_csv(*csv)) {
      const std::size_t eq = part.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw std::runtime_error(
            "--slo expects model=SLO_US[:PRIORITY] entries, got '" + part +
            "'");
      }
      serve::SloClass cls;
      std::string value = part.substr(eq + 1);
      const std::size_t colon = value.find(':');
      if (colon != std::string::npos) {
        cls.priority = std::stoi(value.substr(colon + 1));
        value.resize(colon);
      }
      cls.slo_us = std::stod(value);
      options.slo.models[part.substr(0, eq)] = cls;
    }
  }
  if (const auto v = args.get("default-slo-us")) {
    options.slo.fallback.slo_us = std::stod(*v);
  }
  if (const auto v = args.get("default-priority")) {
    options.slo.fallback.priority = std::stoi(*v);
  }
  if (const auto v = args.get("shed")) options.slo.shed = *v == "1";
  if (const auto v = args.get("starvation-us")) {
    options.slo.starvation_limit_us = std::stod(*v);
  }
  if (const auto v = args.get("adaptive")) {
    options.adaptive.enabled = *v == "1";
  }
}

// --phases "N@REQ_PER_S,..." appends non-stationary trace segments; when
// present it overrides --requests/--rate (shared by serve and fire).
void apply_phase_flags(const Args& args, serve::TraceSpec& spec) {
  if (const auto csv = args.get("phases")) {
    for (const std::string& part : split_csv(*csv)) {
      const std::size_t at = part.find('@');
      if (at == std::string::npos || at == 0) {
        throw std::runtime_error(
            "--phases expects N@REQ_PER_S entries, got '" + part + "'");
      }
      serve::TracePhase phase;
      phase.num_requests = std::stoi(part.substr(0, at));
      const double rate = std::stod(part.substr(at + 1));
      if (rate <= 0) throw std::runtime_error("--phases rate must be > 0");
      phase.mean_interarrival_us = 1e6 / rate;
      spec.phases.push_back(phase);
    }
  }
}

int total_requests(const serve::TraceSpec& spec) {
  if (spec.phases.empty()) return spec.num_requests;
  int total = 0;
  for (const serve::TracePhase& p : spec.phases) total += p.num_requests;
  return total;
}

int cmd_serve(const Args& args) {
  serve::TraceSpec spec;
  spec.models = split_csv(args.get("models", "squeezenet,inception_v3"));
  spec.num_requests = positive_int(args, "requests", "200");
  const double rate = std::stod(args.get("rate", "2000"));
  if (rate <= 0) throw std::runtime_error("--rate must be > 0");
  spec.mean_interarrival_us = 1e6 / rate;
  spec.seed = std::stoull(args.get("seed", "1"));
  apply_phase_flags(args, spec);

  serve::ServerOptions options;
  options.device = args.get("device", "v100");
  options.num_workers = positive_int(args, "workers", "2");
  if (const auto pool = args.get("devices")) {
    options.pool = pool_from_spec(*pool);
  }
  if (const auto csv = args.get("batch-sizes")) {
    options.batching.batch_sizes.clear();
    for (const std::string& s : split_csv(*csv)) {
      options.batching.batch_sizes.push_back(std::stoi(s));
    }
  }
  options.batching.max_queue_delay_us =
      std::stod(args.get("max-delay-us", "2000"));
  options.cache.num_shards =
      static_cast<std::size_t>(positive_int(args, "shards", "8"));
  options.cache.shard_capacity =
      static_cast<std::size_t>(positive_int(args, "capacity", "64"));
  options.profile_db = args.get("profile-db", "");
  options.cross_reuse = args.get("cross-reuse", "0") == "1";
  apply_slo_flags(args, options);

  if (spec.phases.empty()) {
    std::printf("serving %d requests (%.0f req/s offered, seed %llu) of [",
                spec.num_requests, rate,
                static_cast<unsigned long long>(spec.seed));
  } else {
    std::printf("serving %d requests in %zu phases (seed %llu) of [",
                total_requests(spec), spec.phases.size(),
                static_cast<unsigned long long>(spec.seed));
  }
  for (std::size_t i = 0; i < spec.models.size(); ++i) {
    std::printf("%s%s", i ? ", " : "", spec.models[i].c_str());
  }
  serve::Server server(options);
  if (server.options().pool.empty()) {
    std::printf("] on %s: %d workers, batch sizes {", options.device.c_str(),
                server.options().num_workers);
  } else {
    std::printf("] on pool %s: %d workers, batch sizes {",
                server.options().pool.spec_string().c_str(),
                server.options().num_workers);
  }
  const std::vector<int>& sizes = server.options().batching.batch_sizes;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::printf("%s%d", i ? "," : "", sizes[i]);
  }
  std::printf("}, flush after %.0f us\n", options.batching.max_queue_delay_us);

  if (args.get("prewarm", "1") == "1") {
    server.prewarm(spec.models, /*threads=*/0);
    std::printf("prewarmed %zu recipes\n", server.cache().size());
  }

  const serve::ServingResult result = server.run(serve::generate_trace(spec));
  const serve::ServingStats& s = result.stats;
  std::printf("\n  throughput   %10.1f req/s  (%lld requests, %lld batches, "
              "mean batch %.2f)\n",
              s.throughput_rps, static_cast<long long>(s.requests),
              static_cast<long long>(s.batches), s.mean_batch_size);
  std::printf("  latency      mean %.1f us | p50 %.1f | p95 %.1f | p99 %.1f "
              "| max %.1f\n",
              s.mean_latency_us, s.p50_latency_us, s.p95_latency_us,
              s.p99_latency_us, s.max_latency_us);
  std::printf("  queueing     mean wait %.1f us, worker utilization %.1f%%\n",
              s.mean_queue_wait_us, 100 * s.worker_utilization);
  if (args.get("slo") || args.get("default-slo-us")) {
    std::printf("  slo          attainment %.1f%% (%lld met / %lld), "
                "%lld shed, %lld degraded batches\n",
                100 * s.slo_attainment, static_cast<long long>(s.slo_met),
                static_cast<long long>(s.requests),
                static_cast<long long>(s.shed),
                static_cast<long long>(s.degraded_batches));
  }
  if (server.options().adaptive.enabled) {
    std::printf("  adaptive     %lld re-plans (%lld optimizer runs, "
                "%lld new profile measurements)\n",
                static_cast<long long>(s.replans),
                static_cast<long long>(s.replan_optimizations),
                static_cast<long long>(s.replan_measurements));
  }
  if (result.device_loads.size() > 1) {
    for (const serve::DeviceLoad& l : result.device_loads) {
      std::printf("  %-12s %d device%s, %lld batches, utilization %.1f%%\n",
                  l.device.c_str(), l.devices, l.devices == 1 ? "" : "s",
                  static_cast<long long>(l.batches), 100 * l.utilization);
    }
  }
  const serve::ServerStats totals = server.stats();
  std::printf("  recipe cache %lld hits / %lld misses, %lld evictions, "
              "%zu resident (%lld optimizer runs, %lld profiles)\n",
              static_cast<long long>(totals.cache.hits),
              static_cast<long long>(totals.cache.misses),
              static_cast<long long>(totals.cache.evictions),
              totals.cache.size,
              static_cast<long long>(totals.optimizations),
              static_cast<long long>(totals.measurements));
  return 0;
}

int cmd_daemon(const Args& args) {
  net::DaemonOptions options;
  if (const auto path = args.get("config")) {
    options = net::daemon_options_from_json(JsonValue::parse(read_file(*path)));
  }
  // Explicit flags override the config file.
  if (const auto v = args.get("port")) {
    options.port = std::stoi(*v);
    if (options.port < 0 || options.port > 65535) {
      throw std::runtime_error("--port must be in [0, 65535] (0 = ephemeral)");
    }
  }
  if (const auto v = args.get("device")) options.serving.device = *v;
  if (const auto v = args.get("devices")) {
    options.serving.pool = pool_from_spec(*v);
  }
  if (args.get("workers")) {
    options.serving.num_workers = positive_int(args, "workers", "");
  }
  if (const auto v = args.get("models")) options.prewarm_models = split_csv(*v);
  if (const auto csv = args.get("batch-sizes")) {
    options.serving.batching.batch_sizes.clear();
    for (const std::string& s : split_csv(*csv)) {
      options.serving.batching.batch_sizes.push_back(std::stoi(s));
    }
  }
  if (const auto v = args.get("max-delay-us")) {
    options.serving.batching.max_queue_delay_us = std::stod(*v);
  }
  if (args.get("shards")) {
    options.serving.cache.num_shards =
        static_cast<std::size_t>(positive_int(args, "shards", ""));
  }
  if (args.get("capacity")) {
    options.serving.cache.shard_capacity =
        static_cast<std::size_t>(positive_int(args, "capacity", ""));
  }
  if (const auto v = args.get("profile-db")) options.serving.profile_db = *v;
  if (args.get("max-pending")) {
    options.max_pending =
        static_cast<std::size_t>(positive_int(args, "max-pending", ""));
  }
  if (const auto v = args.get("time-scale")) {
    options.time_scale = std::stod(*v);
    if (options.time_scale < 0) {
      throw std::runtime_error("--time-scale must be >= 0");
    }
  }
  if (args.get("io-threads")) {
    options.io_threads = positive_int(args, "io-threads", "");
  }
  if (const auto v = args.get("prewarm-threads")) {
    options.prewarm_threads = std::stoi(*v);
  }
  if (const auto v = args.get("idle-timeout-us")) {
    options.idle_timeout_us = std::stod(*v);
  }
  if (const auto v = args.get("write-timeout-us")) {
    options.write_timeout_us = std::stod(*v);
  }
  if (const auto v = args.get("max-line-bytes")) {
    // Parsed signed: std::stoul("-1") wraps to SIZE_MAX, an unbounded line.
    const long long bytes = std::stoll(*v);
    if (bytes < 0) {
      throw std::runtime_error("--max-line-bytes must be >= 0 (0 = unlimited)");
    }
    options.max_line_bytes = static_cast<std::size_t>(bytes);
  }
  if (const auto v = args.get("chaos")) options.chaos = *v == "1";
  if (const auto v = args.get("stuck-grace-us")) {
    options.stuck_grace_us = std::stod(*v);
  }
  if (const auto v = args.get("watchdog-interval-us")) {
    options.watchdog_interval_us = std::stod(*v);
  }
  apply_slo_flags(args, options.serving);

  net::Daemon daemon(std::move(options));
  daemon.start();
  const serve::ServerOptions& serving = daemon.serving_options();
  if (serving.pool.empty()) {
    std::printf("ios daemon: %s, %d workers\n", serving.device.c_str(),
                serving.num_workers);
  } else {
    std::printf("ios daemon: pool %s, %d workers\n",
                serving.pool.spec_string().c_str(), serving.num_workers);
  }
  std::printf("listening on 127.0.0.1:%d\n", daemon.port());
  std::fflush(stdout);

  const int sig = daemon.serve_forever();

  const net::DaemonStats stats = daemon.stats();
  std::printf("signal %d: drained — %lld connections, %lld admitted, "
              "%lld completed, %lld shed, %lld rejected, "
              "%lld protocol errors, %lld batches, %lld re-plans\n",
              sig, static_cast<long long>(stats.connections),
              static_cast<long long>(stats.admitted),
              static_cast<long long>(stats.completed),
              static_cast<long long>(stats.shed),
              static_cast<long long>(stats.rejected),
              static_cast<long long>(stats.protocol_errors),
              static_cast<long long>(stats.batches),
              static_cast<long long>(stats.replans));
  std::printf("  fault tolerance: %lld idle closes, %lld slow-client "
              "closes, %lld oversized lines, %lld worker deaths, "
              "%lld requeued\n",
              static_cast<long long>(stats.idle_closes),
              static_cast<long long>(stats.slow_client_closes),
              static_cast<long long>(stats.oversized_lines),
              static_cast<long long>(stats.worker_deaths),
              static_cast<long long>(stats.requeued_requests));
  if (const auto path = args.get("stats-json")) {
    JsonValue v = JsonValue::object();
    v.set("connections", stats.connections);
    v.set("admitted", stats.admitted);
    v.set("completed", stats.completed);
    v.set("rejected", stats.rejected);
    v.set("protocol_errors", stats.protocol_errors);
    v.set("batches", stats.batches);
    v.set("shed", stats.shed);
    v.set("replans", stats.replans);
    v.set("idle_closes", stats.idle_closes);
    v.set("slow_client_closes", stats.slow_client_closes);
    v.set("oversized_lines", stats.oversized_lines);
    v.set("worker_deaths", stats.worker_deaths);
    v.set("requeued_requests", stats.requeued_requests);
    const serve::EngineCounters counters = daemon.engine_counters();
    v.set("optimizations", counters.optimizations);
    v.set("measurements", counters.measurements);
    write_file_atomic(*path, v.dump() + "\n");
    std::printf("  stats json written to %s\n", path->c_str());
  }
  return 0;
}

int cmd_fire(const Args& args) {
  const auto port_flag = args.get("port");
  if (!port_flag) throw std::runtime_error("fire requires --port");
  const int port = std::stoi(*port_flag);
  const std::string host = args.get("host", "127.0.0.1");

  serve::TraceSpec spec;
  spec.models = split_csv(args.get("models", "squeezenet"));
  spec.num_requests = positive_int(args, "requests", "200");
  const double rate = std::stod(args.get("rate", "500"));
  if (rate <= 0) throw std::runtime_error("--rate must be > 0");
  spec.mean_interarrival_us = 1e6 / rate;
  spec.seed = std::stoull(args.get("seed", "1"));
  apply_phase_flags(args, spec);
  const serve::Trace trace = serve::generate_trace(spec);
  const std::size_t n = trace.requests.size();

  // Resilience policy: a per-request deadline with bounded, jittered
  // exponential-backoff retries. Responses are keyed by echoed id, so a
  // retry that races its original counts once and the straggler is
  // tallied as a duplicate, never a second sample in the percentiles.
  const double deadline_us = std::stod(args.get("deadline-us", "0"));
  const int max_retries = std::stoi(args.get("retries", "0"));
  const double backoff_us = std::stod(args.get("backoff-us", "5000"));

  // Client-side fault injection (exercises the daemon's torn-read and
  // disconnect handling from the outside; off unless a probability is set).
  net::FaultSpec fault;
  fault.seed = std::stoull(args.get("fault-seed", "1"));
  fault.torn_write_prob = std::stod(args.get("torn-prob", "0"));
  fault.stall_prob = std::stod(args.get("stall-prob", "0"));
  fault.stall_us = std::stod(args.get("stall-us", "200"));
  fault.disconnect_prob = std::stod(args.get("disconnect-prob", "0"));
  fault.refuse_connect_prob = std::stod(args.get("refuse-prob", "0"));
  std::optional<net::FaultInjector> injector;
  if (fault.any()) injector.emplace(fault);

  Rng jitter(spec.seed ^ 0x9e3779b97f4a7c15ull);
  long long retries_sent = 0, timeouts = 0, duplicates = 0, reconnects = 0;

  // Reconnect with jittered backoff so a daemon that refuses (injected or
  // momentarily drowning in its accept queue) is not hammered.
  auto connect = [&]() -> net::Socket {
    double delay_us = 1000;
    for (int attempt = 0;; ++attempt) {
      try {
        return net::Socket::connect_to(host, port,
                                       injector ? &*injector : nullptr);
      } catch (const net::SocketError& e) {
        if (e.kind() != net::SocketErrorKind::kConnectRefused ||
            attempt >= 200) {
          throw;
        }
        std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(
            delay_us * (0.5 + jitter.uniform())));
        delay_us = std::min(delay_us * 2, 50e3);
      }
    }
  };
  net::Socket sock = connect();
  std::printf("firing %zu requests at %s:%d (%.0f req/s offered)\n", n,
              host.c_str(), port, rate);
  std::fflush(stdout);

  const auto start = std::chrono::steady_clock::now();
  auto wall = [&] {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start)
        .count();
  };

  struct ReqState {
    int attempts = 0;          // sends so far (original + retries)
    double next_retry_us = 0;  // wall time at which the deadline expires
    bool done = false;         // a response (ok, shed, or error) arrived
    bool failed = false;       // deadline + retries exhausted
    net::WireResponse response;
  };
  const double kNever = std::numeric_limits<double>::infinity();
  std::vector<ReqState> st(n);

  // A request that dies mid-write (injected disconnect, peer reset) is
  // retried once on a fresh connection; past that the deadline machinery
  // owns recovery.
  auto send_request = [&](std::size_t i) {
    net::WireRequest request;
    request.id = static_cast<std::int64_t>(i);
    request.kind = net::RequestKind::kInfer;
    request.model = trace.requests[i].model;
    const std::string line = net::format_request(request) + "\n";
    for (int tries = 0; tries < 2; ++tries) {
      try {
        sock.write_all(line);
        return;
      } catch (const net::SocketError&) {
        ++reconnects;
        sock = connect();
      }
    }
  };

  // One thread, one pacing loop: sends fire at trace arrival times,
  // expiries retry or fail, and the gaps are spent blocked in
  // read_line_deadline (poll) waiting for responses.
  std::size_t next_send = 0, settled = 0;
  std::string line;
  while (settled < n) {
    const double now = wall();
    while (next_send < n && trace.requests[next_send].arrival_us <= now) {
      const std::size_t i = next_send++;
      st[i].attempts = 1;
      st[i].next_retry_us = deadline_us > 0 ? now + deadline_us : kNever;
      send_request(i);
    }
    if (deadline_us > 0) {
      for (std::size_t i = 0; i < next_send; ++i) {
        ReqState& s = st[i];
        if (s.done || s.failed || now < s.next_retry_us) continue;
        if (s.attempts > max_retries) {
          s.failed = true;
          ++timeouts;
          ++settled;
          continue;
        }
        ++s.attempts;
        ++retries_sent;
        send_request(i);
        const double backoff = backoff_us *
                               static_cast<double>(1 << (s.attempts - 2)) *
                               (0.5 + jitter.uniform());
        s.next_retry_us = wall() + deadline_us + backoff;
      }
    }

    // Sleep until the next scheduled event (arrival or expiry), capped so
    // a lost wakeup can never wedge the loop.
    double wake = now + 10e3;
    if (next_send < n) {
      wake = std::min(wake, trace.requests[next_send].arrival_us);
    }
    if (deadline_us > 0) {
      for (std::size_t i = 0; i < next_send; ++i) {
        if (!st[i].done && !st[i].failed) {
          wake = std::min(wake, st[i].next_retry_us);
        }
      }
    }
    const double timeout_us = std::max(1.0, wake - wall());
    net::ReadStatus status = net::ReadStatus::kTimeout;
    try {
      status = sock.read_line_deadline(line, timeout_us);
    } catch (const net::SocketError&) {
      ++reconnects;
      sock = connect();
      continue;
    }
    if (status == net::ReadStatus::kTimeout) continue;
    if (status == net::ReadStatus::kEof) {
      ++reconnects;
      sock = connect();
      continue;
    }
    if (line.empty()) continue;
    net::WireResponse r;
    try {
      r = net::parse_response(line);
    } catch (const std::exception&) {
      continue;  // daemon error line for a request we already wrote off
    }
    if (r.id < 0 || static_cast<std::size_t>(r.id) >= n) continue;
    ReqState& s = st[static_cast<std::size_t>(r.id)];
    if (s.done || s.failed) {
      ++duplicates;  // retry raced its original (or arrived past timeout)
      continue;
    }
    s.done = true;
    s.response = r;
    ++settled;
  }
  const double elapsed_us = wall();

  // Use the daemon-measured wall latency for the distribution and count
  // errors separately; each id contributes at most one sample.
  std::size_t ok = 0, errors = 0, shed = 0;
  std::vector<double> latencies;
  latencies.reserve(n);
  double queue_sum = 0, service_sum = 0;
  std::map<std::string, std::vector<double>> wall_by_model;
  for (const ReqState& s : st) {
    if (!s.done) continue;
    const net::WireResponse& r = s.response;
    if (!r.ok) {
      if (r.error == "shed") {
        ++shed;
      } else {
        ++errors;
      }
      continue;
    }
    ++ok;
    latencies.push_back(r.wall_latency_us);
    wall_by_model[r.model].push_back(r.wall_latency_us);
    queue_sum += r.queue_us;
    service_sum += r.service_us;
  }
  std::sort(latencies.begin(), latencies.end());
  std::printf("  %zu ok, %zu shed, %zu errors in %.1f ms (%.1f req/s)\n", ok,
              shed, errors, elapsed_us / 1000, ok / (elapsed_us / 1e6));
  if (deadline_us > 0 || max_retries > 0 || injector) {
    std::printf("  resilience    %lld retries, %lld timeouts, "
                "%lld duplicates, %lld reconnects\n",
                retries_sent, timeouts, duplicates, reconnects);
  }
  if (!latencies.empty()) {
    std::printf("  wall latency  p50 %.1f us | p95 %.1f | p99 %.1f | "
                "max %.1f\n",
                percentile_sorted(latencies, 50),
                percentile_sorted(latencies, 95),
                percentile_sorted(latencies, 99), latencies.back());
    std::printf("  server view   mean queue %.1f us, mean service %.1f us\n",
                queue_sum / static_cast<double>(ok),
                service_sum / static_cast<double>(ok));
  }
  // Per-model breakdown: a mixed trace hides per-model tails in the
  // aggregate (std::map => stable alphabetical order).
  if (wall_by_model.size() > 1) {
    for (auto& [model, model_lat] : wall_by_model) {
      std::sort(model_lat.begin(), model_lat.end());
      std::printf("    %-16s %5zu req | p50 %.1f us | p95 %.1f | p99 %.1f\n",
                  model.c_str(), model_lat.size(),
                  percentile_sorted(model_lat, 50),
                  percentile_sorted(model_lat, 95),
                  percentile_sorted(model_lat, 99));
    }
  }

  // One final stats probe, printed raw for scripting. Straggler duplicate
  // responses may still be in flight, so skip lines until the stats id.
  try {
    net::WireRequest stats_request;
    stats_request.id = static_cast<std::int64_t>(n);
    stats_request.kind = net::RequestKind::kStats;
    sock.write_all(net::format_request(stats_request) + "\n");
    while (sock.read_line_deadline(line, 2e6) == net::ReadStatus::kLine) {
      bool is_stats = false;
      try {
        const JsonValue v = JsonValue::parse(line);
        is_stats = v.contains("id") &&
                   v.at("id").as_int() == static_cast<std::int64_t>(n);
      } catch (const std::exception&) {
      }
      if (is_stats) {
        std::printf("  daemon stats %s\n", line.c_str());
        break;
      }
      ++duplicates;
    }
  } catch (const net::SocketError&) {
    // Stats are best-effort; injected faults must not fail the run.
  }
  return 0;
}

int cmd_admin(const Args& args) {
  const auto port_flag = args.get("port");
  if (!port_flag) throw std::runtime_error("admin requires --port");
  const int port = std::stoi(*port_flag);
  const std::string host = args.get("host", "127.0.0.1");
  const std::string cmd = args.get("cmd", "health");

  net::WireRequest request;
  request.id = 0;
  if (cmd == "ping") {
    request.kind = net::RequestKind::kPing;
  } else if (cmd == "stats") {
    request.kind = net::RequestKind::kStats;
  } else if (cmd == "health") {
    request.kind = net::RequestKind::kHealth;
  } else if (cmd == "kill_worker") {
    request.kind = net::RequestKind::kKillWorker;
    request.worker = std::stoi(args.get("worker", "-1"));
  } else if (cmd == "stall_worker") {
    request.kind = net::RequestKind::kStallWorker;
    request.worker = std::stoi(args.get("worker", "-1"));
    request.stall_us = std::stod(args.get("stall-us", "100000"));
  } else {
    throw std::runtime_error(
        "unknown --cmd '" + cmd +
        "' (known: ping stats health kill_worker stall_worker)");
  }

  net::Socket sock = net::Socket::connect_to(host, port);
  sock.write_all(net::format_request(request) + "\n");
  std::string line;
  if (sock.read_line_deadline(line, 5e6) != net::ReadStatus::kLine) {
    throw std::runtime_error("daemon closed without answering");
  }
  std::printf("%s\n", line.c_str());
  const JsonValue v = JsonValue::parse(line);
  const bool ok = v.contains("ok") && v.at("ok").as_bool();
  return ok ? 0 : 1;
}

int cmd_place(const Args& args) {
  PlacementRequest request;
  request.pool = pool_from_spec(args.get("devices", "p100,1080ti"));

  const std::vector<std::string> models =
      split_csv(args.get("models", "squeezenet,resnet34"));
  std::vector<int> batches;
  for (const std::string& b : split_csv(args.get("batches", "1"))) {
    batches.push_back(std::stoi(b));
  }
  std::vector<double> weights(models.size(), 1.0);
  if (const auto csv = args.get("weights")) {
    const std::vector<std::string> parts = split_csv(*csv);
    if (parts.size() != models.size()) {
      throw std::runtime_error("--weights must list one weight per model");
    }
    for (std::size_t i = 0; i < parts.size(); ++i) {
      weights[i] = std::stod(parts[i]);
    }
  }
  for (std::size_t m = 0; m < models.size(); ++m) {
    for (int batch : batches) {
      request.workload.push_back(WorkloadItem{models[m], batch, weights[m]});
    }
  }
  request.allow_splits = args.get("splits", "1") == "1";
  request.profile_db = args.get("profile-db", "");

  std::printf("placing %zu configurations on pool %s (%d devices)\n\n",
              request.workload.size(), request.pool.spec_string().c_str(),
              request.pool.total_devices());
  Placer placer;
  const PlacementResult result = placer.place(request);

  std::printf("  per-device latencies (ms):\n");
  for (const WorkloadItem& item : request.workload) {
    std::printf("    %-16s batch %-3d", item.model.c_str(), item.batch);
    for (const DeviceClass& c : request.pool.classes) {
      const DeviceRecipe* r =
          result.recipe_for(item.model, item.batch, c.spec.name);
      std::printf("  %s %.3f", c.spec.name.c_str(),
                  r ? r->latency_us / 1000 : 0.0);
    }
    std::printf("\n");
  }

  std::printf("\n  plan (makespan %.1f us/unit weight):\n",
              result.plan.makespan_us);
  for (const Assignment& a : result.plan.assignments) {
    std::printf("    %-16s batch %-3d weight %-5.2g -> %-24s %.3f ms",
                a.model.c_str(), a.batch, a.weight, a.device.c_str(),
                a.service_us / 1000);
    if (a.split) {
      std::printf("  (split at block %d: %.3f + %.3f transfer + %.3f)",
                  a.split->cut_block, a.split->first_us / 1000,
                  a.split->transfer_us / 1000, a.split->second_us / 1000);
    }
    std::printf("\n");
  }
  for (const ClassLoad& l : result.plan.loads) {
    std::printf("    %-16s x%d  load %.1f us, utilization %.1f%%\n",
                l.device.c_str(), l.count, l.load_us, 100 * l.utilization);
  }
  std::printf("\n  %lld optimizer runs (%lld cached), %lld profiles\n",
              static_cast<long long>(result.optimizations),
              static_cast<long long>(result.cache_hits),
              static_cast<long long>(result.measurements));

  if (const auto path = args.get("json")) {
    write_file(*path, placement_to_json(result).dump());
    std::printf("  plan written to %s\n", path->c_str());
  }
  return 0;
}

int cmd_fleet(const Args& args) {
  fleet::FleetSimOptions options;
  options.topology = fleet::fleet_from_spec(
      args.get("topology", "rack:2{node:2{p100x2,1080tix2}}"));

  const std::vector<std::string> models =
      split_csv(args.get("models", "squeezenet,mobilenet_v2"));
  std::vector<int> batches;
  for (const std::string& b : split_csv(args.get("batches", "8"))) {
    batches.push_back(std::stoi(b));
  }
  std::vector<double> weights(models.size(), 1.0);
  if (const auto csv = args.get("weights")) {
    const std::vector<std::string> parts = split_csv(*csv);
    if (parts.size() != models.size()) {
      throw std::runtime_error("--weights must list one weight per model");
    }
    for (std::size_t i = 0; i < parts.size(); ++i) {
      weights[i] = std::stod(parts[i]);
    }
  }
  for (std::size_t m = 0; m < models.size(); ++m) {
    for (int batch : batches) {
      options.workload.push_back(WorkloadItem{models[m], batch, weights[m]});
    }
  }
  options.replicas = positive_int(args, "replicas", "2");
  if (const auto csv = args.get("batch-sizes")) {
    options.batching.batch_sizes.clear();
    for (const std::string& s : split_csv(*csv)) {
      options.batching.batch_sizes.push_back(std::stoi(s));
    }
  }
  options.batching.max_queue_delay_us =
      std::stod(args.get("max-delay-us", "2000"));
  options.profile_db = args.get("profile-db", "");

  serve::TraceSpec spec;
  spec.models = models;
  spec.num_requests = positive_int(args, "requests", "1000");
  const double rate = std::stod(args.get("rate", "20000"));
  if (rate <= 0) throw std::runtime_error("--rate must be > 0");
  spec.mean_interarrival_us = 1e6 / rate;
  spec.seed = std::stoull(args.get("seed", "1"));
  const serve::Trace trace = serve::generate_trace(spec);

  options.failures.max_kills = std::stoi(args.get("kills", "0"));
  options.failures.seed = std::stoull(args.get("kill-seed", "1"));
  options.failures.first_kill_at_us = std::stod(
      args.get("first-kill-us", std::to_string(trace.duration_us() * 0.05)));
  options.failures.mean_time_between_kills_us = std::stod(
      args.get("mtbf-us", std::to_string(trace.duration_us() * 0.1)));

  fleet::FleetSimulator sim(std::move(options));
  const fleet::FleetTopology& topology = sim.options().topology;
  std::printf("fleet %s: %d devices across %d nodes in %d racks\n",
              topology.spec.c_str(), topology.total_devices(),
              topology.num_nodes, topology.num_racks);
  for (const DeviceClass& c : topology.pool.classes) {
    std::printf("  %-16s x%d\n", c.spec.name.c_str(), c.count);
  }

  const fleet::FleetPlan& plan = sim.plan();
  std::printf("\nplan (%.1f ms wall, %lld searches, %lld cached):\n",
              plan.plan_wall_ms,
              static_cast<long long>(plan.placement.optimizations),
              static_cast<long long>(plan.placement.cache_hits));
  for (const Assignment& a : plan.placement.plan.assignments) {
    std::printf("  %-16s batch %-3d weight %-5.2g -> %-12s %.3f ms\n",
                a.model.c_str(), a.batch, a.weight, a.device.c_str(),
                a.service_us / 1000);
  }
  for (const fleet::ReplicaPlacement& r : plan.replicas) {
    std::printf("    replica %-16s batch %-3d -> worker %-4d (%s, node %d, "
                "rack %d)\n",
                r.model.c_str(), r.batch, r.worker, r.device.c_str(), r.node,
                r.rack);
  }
  std::printf("  anti-affinity: every item spans >= %d nodes, >= %d racks\n",
              plan.min_distinct_nodes, plan.min_distinct_racks);

  std::printf("\nserving %d requests (%.0f req/s offered, seed %llu), "
              "%d seeded kills\n",
              spec.num_requests, rate,
              static_cast<unsigned long long>(spec.seed),
              sim.options().failures.max_kills);
  const fleet::FleetSimResult result = sim.run(trace);
  const fleet::FleetStats& s = result.stats;
  std::printf("  served       %lld requests, %lld batches, makespan %.1f ms "
              "(%.0f ms wall)\n",
              static_cast<long long>(s.requests),
              static_cast<long long>(s.batches), s.makespan_us / 1000,
              result.run_wall_ms);
  std::printf("  latency      mean %.1f us | p50 %.1f | p95 %.1f | p99 %.1f "
              "| max %.1f\n",
              s.mean_latency_us, s.p50_latency_us, s.p95_latency_us,
              s.p99_latency_us, s.max_latency_us);
  std::printf("  failures     %lld kills, %lld batches interrupted, %lld "
              "requests re-routed, %lld lost\n",
              static_cast<long long>(s.failures),
              static_cast<long long>(s.killed_batches),
              static_cast<long long>(s.rerouted_requests),
              static_cast<long long>(s.lost_requests));
  std::printf("  recovery     %lld re-plans (%lld searches, %lld cached), "
              "mean %.1f us, max %.1f us\n",
              static_cast<long long>(s.replans),
              static_cast<long long>(s.replan_optimizations),
              static_cast<long long>(s.replan_cache_hits), s.mean_recovery_us,
              s.max_recovery_us);

  if (const auto path = args.get("json")) {
    JsonValue root = fleet::fleet_plan_to_json(topology, plan);
    root.set("stats", fleet::fleet_stats_to_json(s));
    write_file(*path, root.dump());
    std::printf("  fleet report written to %s\n", path->c_str());
  }
  return 0;
}

int cmd_inspect(const Args& args) {
  const Graph g = models::build_model(args.get("model", "inception_v3"),
                                      std::stoi(args.get("batch", "1")));
  const NetworkSummary s = summarize_network(g);
  std::printf("%s: %d blocks, %d operators, main type %s, %.2f GFLOPs\n",
              s.name.c_str(), s.num_blocks, s.num_ops, s.main_op_type.c_str(),
              static_cast<double>(g.total_flops()) / 1e9);
  const BlockComplexity c = largest_block_complexity(g);
  std::printf("largest block: n=%d, width d=%d, bound %.2e, #(S,S')=%lld, "
              "#schedules %.2e\n",
              c.n, c.d, c.upper_bound,
              static_cast<long long>(c.transitions), c.num_schedules);
  if (args.get("print", "0") == "1") {
    std::printf("\n%s", g.to_string().c_str());
  }
  return 0;
}

int cmd_list() {
  std::printf("models:");
  for (const std::string& name : models::model_names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\ndevices:");
  for (const std::string& name : device_names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\nbaselines:");
  for (Baseline b : all_baselines()) {
    std::printf(" %s", baseline_name(b));
  }
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.command == "optimize") return cmd_optimize(args);
    if (args.command == "evaluate") return cmd_evaluate(args);
    if (args.command == "serve") return cmd_serve(args);
    if (args.command == "daemon") return cmd_daemon(args);
    if (args.command == "fire") return cmd_fire(args);
    if (args.command == "admin") return cmd_admin(args);
    if (args.command == "place") return cmd_place(args);
    if (args.command == "fleet") return cmd_fleet(args);
    if (args.command == "inspect") return cmd_inspect(args);
    if (args.command == "list") return cmd_list();
    if (args.command == "help" || args.command == "--help" ||
        args.command == "-h") {
      print_usage(stdout);
      return 0;
    }
    std::fprintf(stderr, "error: unknown command '%s'\n\n",
                 args.command.c_str());
    print_usage(stderr);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n\n", e.what());
    print_usage(stderr);
    return 2;
  }
}
