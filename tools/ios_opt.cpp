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
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
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

// The usage text is also the list of flags each command takes (see
// usage_flags).
constexpr const char kUsage[] =
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
    "             dynamic batcher + recipe store\n"
    "             --models a,b,... | --device NAME |\n"
    "             --devices POOL (e.g. v100,k80x2; device-aware\n"
    "             routing, overrides --device/--workers) |\n"
    "             --workers N |\n"
    "             --requests N | --rate REQ_PER_S | --seed N |\n"
    "             --phases N@RATE,... (non-stationary trace;\n"
    "             overrides --requests/--rate) |\n"
    "             --batch-sizes a,b,... | --max-delay-us T |\n"
    "             --capacity N (stored recipes) | --prewarm 0|1 |\n"
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
    "             --capacity N (stored recipes) |\n"
    "             --profile-db FILE |\n"
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
    "  help       show this message\n";

// The flags the usage text lists in `command`'s section, which runs from the
// command's name at column 2 to the next name; nullopt for an unknown one.
std::optional<std::set<std::string>> usage_flags(const std::string& command) {
  std::optional<std::set<std::string>> flags;
  bool inside = false;
  std::istringstream usage(kUsage);
  for (std::string line; std::getline(usage, line);) {
    if (line.size() > 2 && line.compare(0, 2, "  ") == 0 && line[2] != ' ') {
      inside = line.compare(2, command.size() + 1, command + ' ') == 0;
      if (inside) flags.emplace();
    }
    for (std::size_t at = line.find("--"); inside && at != std::string::npos;
         at = line.find("--", at + 2)) {
      const std::size_t end =
          line.find_first_not_of("abcdefghijklmnopqrstuvwxyz-", at + 2);
      flags->insert(line.substr(at + 2, end - at - 2));
    }
  }
  return flags;
}

// Flag values are strict: a number is a JSON number, as in a daemon config
// file ("4x", "nan" and "inf" are rejected), and a switch is 0 or 1.
JsonValue number_value(const std::string& text) {
  try {
    JsonValue v = JsonValue::parse(text);
    if (v.kind() == JsonValue::Kind::kNumber) return v;
  } catch (const std::exception&) {
  }
  throw std::runtime_error("expected a number, got '" + text + "'");
}

bool switch_value(const std::string& text) {
  if (text == "0" || text == "1") return text == "1";
  throw std::runtime_error("expected 0 or 1, got '" + text + "'");
}

// Runs `parse` on the value of --flag, rethrowing its error as
// "--flag: message".
template <typename F>
auto parse_flag(const std::string& flag, F&& parse) -> decltype(parse()) {
  try {
    return parse();
  } catch (const std::exception& e) {
    throw std::runtime_error("--" + flag + ": " + e.what());
  }
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

  double number(const std::string& flag, double fallback) const {
    const auto text = get(flag);
    if (!text) return fallback;
    return parse_flag(flag, [&] { return number_value(*text).as_number(); });
  }
  // A whole number in [lo, hi].
  std::int64_t integer(const std::string& flag, std::int64_t fallback,
                       std::int64_t lo = std::numeric_limits<int>::min(),
                       std::int64_t hi = std::numeric_limits<int>::max())
      const {
    const auto text = get(flag);
    if (!text) return fallback;
    return parse_flag(flag,
                      [&] { return number_value(*text).as_int_in(lo, hi); });
  }
  std::uint64_t seed(const std::string& flag) const {
    return static_cast<std::uint64_t>(
        integer(flag, 1, 0, std::numeric_limits<std::int64_t>::max()));
  }
  bool on(const std::string& flag, bool fallback) const {
    const auto text = get(flag);
    if (!text) return fallback;
    return parse_flag(flag, [&] { return switch_value(*text); });
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

// ---- serving and daemon flags -------------------------------------------
// Each serving or daemon flag is its daemon config key: its text becomes the
// key's JSON value and goes through net::apply_daemon_option, as a --config
// file's keys do, so a flag and its key share each type rule and check.

JsonValue text_json(const std::string& text) { return JsonValue(text); }

JsonValue switch_json(const std::string& text) {
  return JsonValue(switch_value(text));
}

JsonValue numbers_json(const std::string& csv) {
  JsonValue list = JsonValue::array();
  for (const std::string& item : split_csv(csv)) {
    list.push_back(number_value(item));
  }
  return list;
}

JsonValue texts_json(const std::string& csv) {
  JsonValue list = JsonValue::array();
  for (const std::string& item : split_csv(csv)) list.push_back(item);
  return list;
}

// --slo "model=SLO_US[:PRIORITY],..." as the config's slo object.
JsonValue slo_json(const std::string& csv) {
  JsonValue slo = JsonValue::object();
  for (const std::string& part : split_csv(csv)) {
    const std::size_t eq = part.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::runtime_error(
          "expected model=SLO_US[:PRIORITY] entries, got '" + part + "'");
    }
    const std::string value = part.substr(eq + 1);
    const std::size_t colon = value.find(':');
    JsonValue cls = JsonValue::object();
    cls.set("slo_us", number_value(value.substr(0, colon)));
    if (colon != std::string::npos) {
      cls.set("priority", number_value(value.substr(colon + 1)));
    }
    slo.set(part.substr(0, eq), std::move(cls));
  }
  return slo;
}

struct OptionFlag {
  const char* flag;
  const char* key;
  JsonValue (*value)(const std::string& text);
  bool daemon_only;
};

constexpr OptionFlag kOptionFlags[] = {
    {"device", "device", text_json, false},
    {"devices", "devices", text_json, false},
    {"workers", "workers", number_value, false},
    {"batch-sizes", "batch_sizes", numbers_json, false},
    {"max-delay-us", "max_queue_delay_us", number_value, false},
    {"capacity", "capacity", number_value, false},
    {"profile-db", "profile_db", text_json, false},
    {"slo", "slo", slo_json, false},
    {"default-slo-us", "default_slo_us", number_value, false},
    {"default-priority", "default_priority", number_value, false},
    {"shed", "shed", switch_json, false},
    {"starvation-us", "starvation_limit_us", number_value, false},
    {"adaptive", "adaptive", switch_json, false},
    {"port", "port", number_value, true},
    {"models", "prewarm", texts_json, true},
    {"max-pending", "max_pending", number_value, true},
    {"time-scale", "time_scale", number_value, true},
    {"io-threads", "io_threads", number_value, true},
    {"prewarm-threads", "prewarm_threads", number_value, true},
    {"idle-timeout-us", "idle_timeout_us", number_value, true},
    {"write-timeout-us", "write_timeout_us", number_value, true},
    {"max-line-bytes", "max_line_bytes", number_value, true},
    {"chaos", "chaos", switch_json, true},
    {"stuck-grace-us", "stuck_grace_us", number_value, true},
    {"watchdog-interval-us", "watchdog_interval_us", number_value, true},
};

// Applies the serving flags (and, for the daemon, the daemon-only ones) in
// `args` to `options`.
void apply_option_flags(const Args& args, bool daemon,
                        net::DaemonOptions& options) {
  for (const OptionFlag& f : kOptionFlags) {
    if (f.daemon_only && !daemon) continue;
    if (const auto text = args.get(f.flag)) {
      parse_flag(f.flag, [&] {
        net::apply_daemon_option(options, f.key, f.value(*text));
      });
    }
  }
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
  request.batch = args.integer("batch", 1);
  request.device = args.get("device", "v100");
  request.options.variant = variant_from(args.get("variant", "both"));
  request.options.pruning.r = args.integer("r", 3);
  request.options.pruning.s = args.integer("s", 8);
  request.options.engine = engine_from(args.get("engine", "auto"));
  request.options.num_threads = args.integer("threads", 1);
  apply_prune_spec(request.options, args.get("prune", "exact"));
  request.cross_reuse = args.on("cross-reuse", false);
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
  const bool print = args.on("print", false);
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
      recipe, args.get("device", ""), args.integer("batch", 0));
  std::printf("recipe %s (optimized for %s, batch %d)\n", path->c_str(),
              recipe.device.c_str(), recipe.batch);
  std::printf("executing on %s at batch %d: IOS %.3f ms, sequential %.3f ms "
              "(%.2fx)\n",
              ev.device.c_str(), ev.batch, ev.latency_us / 1000,
              ev.sequential_latency_us / 1000, ev.speedup);
  return 0;
}

// --models, --requests, --rate and --seed as a trace spec, with fallbacks
// per command (shared by serve, fire and fleet). --phases "N@REQ_PER_S,..."
// appends non-stationary segments and overrides --requests/--rate.
serve::TraceSpec trace_flags(const Args& args, const std::string& models,
                             int requests, double rate) {
  serve::TraceSpec spec;
  spec.models = split_csv(args.get("models", models));
  spec.num_requests = args.integer("requests", requests, 1);
  rate = args.number("rate", rate);
  if (rate <= 0) throw std::runtime_error("--rate must be > 0");
  spec.mean_interarrival_us = 1e6 / rate;
  spec.seed = args.seed("seed");
  const auto csv = args.get("phases");
  if (!csv) return spec;
  parse_flag("phases", [&] {
    for (const std::string& part : split_csv(*csv)) {
      const std::size_t at = part.find('@');
      if (at == std::string::npos || at == 0) {
        throw std::runtime_error("expected N@REQ_PER_S entries, got '" +
                                 part + "'");
      }
      serve::TracePhase phase;
      phase.num_requests = static_cast<int>(
          number_value(part.substr(0, at))
              .as_int_in(1, std::numeric_limits<int>::max()));
      const double phase_rate = number_value(part.substr(at + 1)).as_number();
      if (phase_rate <= 0) throw std::runtime_error("rate must be > 0");
      phase.mean_interarrival_us = 1e6 / phase_rate;
      spec.phases.push_back(phase);
    }
  });
  return spec;
}

int cmd_serve(const Args& args) {
  const serve::TraceSpec spec =
      trace_flags(args, "squeezenet,inception_v3", 200, 2000);
  const serve::Trace trace = serve::generate_trace(spec);

  net::DaemonOptions flags;
  flags.serving.num_workers = 2;
  apply_option_flags(args, /*daemon=*/false, flags);
  serve::ServerOptions options = std::move(flags.serving);
  options.cross_reuse = args.on("cross-reuse", false);

  if (spec.phases.empty()) {
    std::printf("serving %zu requests (%.0f req/s offered, seed %llu) of [",
                trace.requests.size(), 1e6 / spec.mean_interarrival_us,
                static_cast<unsigned long long>(spec.seed));
  } else {
    std::printf("serving %zu requests in %zu phases (seed %llu) of [",
                trace.requests.size(), spec.phases.size(),
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

  if (args.on("prewarm", true)) {
    server.prewarm(spec.models, /*threads=*/0);
    std::printf("prewarmed %zu recipes\n", server.cache().size());
  }

  const serve::ServingResult result = server.run(trace);
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
  apply_option_flags(args, /*daemon=*/true, options);  // flags override it

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
    JsonValue v = net::daemon_stats_to_json(stats);
    const serve::EngineCounters counters = daemon.engine_counters();
    v.set("optimizations", counters.optimizations);
    v.set("measurements", counters.measurements);
    write_file_atomic(*path, v.dump() + "\n");
    std::printf("  stats json written to %s\n", path->c_str());
  }
  return 0;
}

int cmd_fire(const Args& args) {
  if (!args.get("port")) throw std::runtime_error("fire requires --port");
  const int port = args.integer("port", 0, 0, 65535);
  const std::string host = args.get("host", "127.0.0.1");

  const serve::TraceSpec spec = trace_flags(args, "squeezenet", 200, 500);
  const serve::Trace trace = serve::generate_trace(spec);
  const std::size_t n = trace.requests.size();

  // Resilience policy: a per-request deadline with bounded, jittered
  // exponential-backoff retries. Responses are keyed by echoed id, so a
  // retry that races its original counts once and the straggler is
  // tallied as a duplicate, never a second sample in the percentiles.
  const double deadline_us = args.number("deadline-us", 0);
  const int max_retries = args.integer("retries", 0);
  const double backoff_us = args.number("backoff-us", 5000);

  // Client-side fault injection (exercises the daemon's torn-read and
  // disconnect handling from the outside; off unless a probability is set).
  net::FaultSpec fault;
  fault.seed = args.seed("fault-seed");
  fault.torn_write_prob = args.number("torn-prob", 0);
  fault.stall_prob = args.number("stall-prob", 0);
  fault.stall_us = args.number("stall-us", 200);
  fault.disconnect_prob = args.number("disconnect-prob", 0);
  fault.refuse_connect_prob = args.number("refuse-prob", 0);
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
              host.c_str(), port, 1e6 / spec.mean_interarrival_us);
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
  if (!args.get("port")) throw std::runtime_error("admin requires --port");
  const int port = args.integer("port", 0, 0, 65535);
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
    request.worker = args.integer("worker", -1);
  } else if (cmd == "stall_worker") {
    request.kind = net::RequestKind::kStallWorker;
    request.worker = args.integer("worker", -1);
    request.stall_us = args.number("stall-us", 100000);
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

// --batches a,b,... and --weights w,...: every model at every batch, with
// its model's weight (shared by place and fleet).
std::vector<WorkloadItem> workload_flags(const Args& args,
                                         const std::vector<std::string>& models,
                                         const std::string& batches) {
  std::vector<double> weights(models.size(), 1.0);
  if (const auto csv = args.get("weights")) {
    const std::vector<std::string> parts = split_csv(*csv);
    if (parts.size() != models.size()) {
      throw std::runtime_error("--weights must list one weight per model");
    }
    for (std::size_t i = 0; i < parts.size(); ++i) {
      weights[i] = parse_flag("weights", [&] {
        return number_value(parts[i]).as_number();
      });
    }
  }
  std::vector<int> sizes;
  parse_flag("batches", [&] {
    for (const std::string& b : split_csv(args.get("batches", batches))) {
      sizes.push_back(static_cast<int>(
          number_value(b).as_int_in(1, std::numeric_limits<int>::max())));
    }
  });
  std::vector<WorkloadItem> workload;
  for (std::size_t m = 0; m < models.size(); ++m) {
    for (const int batch : sizes) {
      workload.push_back(WorkloadItem{models[m], batch, weights[m]});
    }
  }
  return workload;
}

int cmd_place(const Args& args) {
  PlacementRequest request;
  request.pool = pool_from_spec(args.get("devices", "p100,1080ti"));

  request.workload = workload_flags(
      args, split_csv(args.get("models", "squeezenet,resnet34")), "1");
  request.allow_splits = args.on("splits", true);
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

  const serve::TraceSpec spec =
      trace_flags(args, "squeezenet,mobilenet_v2", 1000, 20000);
  const serve::Trace trace = serve::generate_trace(spec);
  options.workload = workload_flags(args, spec.models, "8");
  options.replicas = args.integer("replicas", 2, 1);
  // --batch-sizes, --max-delay-us and --profile-db, parsed as serve's.
  net::DaemonOptions flags;
  apply_option_flags(args, /*daemon=*/false, flags);
  options.batching = flags.serving.batching;
  options.profile_db = flags.serving.profile_db;

  options.failures.max_kills = args.integer("kills", 0);
  options.failures.seed = args.seed("kill-seed");
  options.failures.first_kill_at_us =
      args.number("first-kill-us", trace.duration_us() * 0.05);
  options.failures.mean_time_between_kills_us =
      args.number("mtbf-us", trace.duration_us() * 0.1);

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
              spec.num_requests, 1e6 / spec.mean_interarrival_us,
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
                                      args.integer("batch", 1));
  const NetworkSummary s = summarize_network(g);
  std::printf("%s: %d blocks, %d operators, main type %s, %.2f GFLOPs\n",
              s.name.c_str(), s.num_blocks, s.num_ops, s.main_op_type.c_str(),
              static_cast<double>(g.total_flops()) / 1e9);
  const BlockComplexity c = largest_block_complexity(g);
  std::printf("largest block: n=%d, width d=%d, bound %.2e, #(S,S')=%lld, "
              "#schedules %.2e\n",
              c.n, c.d, c.upper_bound,
              static_cast<long long>(c.transitions), c.num_schedules);
  if (args.on("print", false)) {
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
    if (args.command == "help" || args.command == "--help" ||
        args.command == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    }
    const auto flags = usage_flags(args.command);
    if (!flags) {
      std::fprintf(stderr, "error: unknown command '%s'\n\n",
                   args.command.c_str());
      std::fputs(kUsage, stderr);
      return 2;
    }
    for (const auto& [flag, value] : args.options) {
      if (!flags->count(flag)) {
        throw std::runtime_error("unknown flag '--" + flag + "' for ios_opt " +
                                 args.command);
      }
    }
    if (args.command == "optimize") return cmd_optimize(args);
    if (args.command == "evaluate") return cmd_evaluate(args);
    if (args.command == "serve") return cmd_serve(args);
    if (args.command == "daemon") return cmd_daemon(args);
    if (args.command == "fire") return cmd_fire(args);
    if (args.command == "admin") return cmd_admin(args);
    if (args.command == "place") return cmd_place(args);
    if (args.command == "fleet") return cmd_fleet(args);
    if (args.command == "inspect") return cmd_inspect(args);
    return cmd_list();  // the usage's one other command
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n\n", e.what());
    std::fputs(kUsage, stderr);
    return 2;
  }
}
