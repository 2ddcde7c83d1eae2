// iosbench: times the public entry points of the IOS library from outside
// it and gates every output. One process runs one workload:
//
//   iosbench --workload optimize_cold|optimize_warm|serve_loopback
//            --seed N --seconds S --trace 0|1 --out-dir DIR
//            [--trace-file FILE]
//
// Human-readable lines come first; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics": {name: value}} holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1);
// run.py attaches each metric's unit from BENCHMARK.json. The exit status
// is nonzero when any correctness gate failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace iosbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "iosbench: %s\nusage: iosbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --out-dir DIR [--trace-file FILE]\n",
               why);
  std::exit(2);
}

RunConfig parse_args(int argc, char** argv, std::string& trace_file) {
  RunConfig cfg;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      cfg.workload = value;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = true;
    } else if (key == "--trace") {
      cfg.trace = value == "1";
    } else if (key == "--out-dir") {
      cfg.out_dir = value;
    } else if (key == "--trace-file") {
      trace_file = value;
    } else {
      usage(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 == 0) usage("flags take one value each");
  if (cfg.workload.empty() || !have_seed || !have_seconds ||
      cfg.out_dir.empty()) {
    usage("--workload, --seed, --seconds and --out-dir are required");
  }
  if (!(cfg.seconds > 0)) usage("--seconds must be positive");
  return cfg;
}

void print_result(const RunResult& r, bool trace) {
  const auto& metrics = trace ? r.per_layer : r.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.correct() ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  const char* sep = "";
  for (const auto& [name, value] : metrics) {
    // JSON has no infinity: an infinite latency (failed requests in the
    // percentile) prints as the largest double.
    std::printf("%s\"%s\": %.17g", sep, name.c_str(),
                std::isfinite(value) ? value : 1.7976931348623157e308);
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_file;
  const RunConfig cfg = parse_args(argc, argv, trace_file);
  Tracer tracer(cfg.trace);
  RunResult r;
  const HostProbe before = probe_host();
  try {
    if (cfg.workload == "optimize_cold" || cfg.workload == "optimize_warm") {
      run_optimize(cfg, cfg.workload == "optimize_warm", tracer, r);
    } else if (cfg.workload == "serve_loopback") {
      run_serve(cfg, tracer, r);
    } else {
      usage(("unknown workload " + cfg.workload).c_str());
    }
  } catch (const std::exception& e) {
    r.fail(std::string("workload threw: ") + e.what());
  }
  const HostProbe after = probe_host();
  note("host probe: alu %.1f -> %.1f ms, mem %.1f -> %.1f ms", before.alu_ms,
       after.alu_ms, before.mem_ms, after.mem_ms);
  if (cfg.trace) {
    r.per_layer["host.alu_ms"] = (before.alu_ms + after.alu_ms) / 2;
    r.per_layer["host.mem_ms"] = (before.mem_ms + after.mem_ms) / 2;
    r.per_layer["trace.spans"] = static_cast<double>(tracer.size());
    note("%-24s %8s %12s %12s", "span", "count", "total_ms", "self_ms");
    for (const LayerTime& lt : tracer.layer_times()) {
      note("%-24s %8lld %12.3f %12.3f", lt.name.c_str(),
           static_cast<long long>(lt.count), lt.total_ms, lt.self_ms);
    }
    if (!trace_file.empty()) {
      tracer.write_chrome_trace(trace_file);
      note("chrome trace: %s", trace_file.c_str());
    }
  }
  note("attempted %lld, failed %lld", static_cast<long long>(r.attempted),
       static_cast<long long>(r.failed));
  for (const std::string& e : r.errors) {
    note("GATE FAILED: %s", e.c_str());
  }
  print_result(r, cfg.trace);
  return r.correct() ? 0 : 1;
}
