#pragma once
// Shared helpers for the benchmark binaries that regenerate the paper's
// tables and figures. Each binary prints the same rows/series the paper
// reports; absolute numbers come from the execution simulator, so the
// *shape* (who wins, by what factor) is the comparison target.

#include <sys/utsname.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "frameworks/frameworks.hpp"
#include "models/models.hpp"
#include "runtime/executor.hpp"
#include "schedule/baselines.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace ios::bench {

inline ExecConfig config_for(const DeviceSpec& device) {
  return ExecConfig{device, KernelModelParams{}};
}

/// Runs IOS (default pruning r=3, s=8 as in Section 5) and returns the
/// found schedule.
inline Schedule ios_schedule(const Graph& g, const DeviceSpec& device,
                             IosVariant variant = IosVariant::kBoth,
                             PruningStrategy pruning = PruningStrategy{},
                             SchedulerStats* stats = nullptr) {
  CostModel cost(g, config_for(device));
  SchedulerOptions options;
  options.pruning = pruning;
  options.variant = variant;
  return IosScheduler(cost, options).schedule_graph(stats);
}

inline double latency_us(const Graph& g, const DeviceSpec& device,
                         const Schedule& q) {
  return Executor(g, config_for(device)).schedule_latency_us(q);
}

/// The paper reports the average of 5 runs; the simulator is deterministic,
/// so we run once and report that value.
struct SeriesRow {
  std::string model;
  std::vector<double> latencies_us;  // one per method
};

/// Prints a normalized-throughput table (Figures 6/7/12/14/15 style): each
/// row is normalized to its best method; a GeoMean row is appended.
inline void print_normalized(const std::string& title,
                             const std::vector<std::string>& methods,
                             const std::vector<SeriesRow>& rows) {
  std::printf("== %s ==\n", title.c_str());
  std::vector<std::string> header{"model"};
  header.insert(header.end(), methods.begin(), methods.end());
  TablePrinter t(header);

  std::vector<std::vector<double>> normalized(methods.size());
  for (const SeriesRow& row : rows) {
    const double best = min_of(row.latencies_us);
    std::vector<std::string> cells{row.model};
    for (std::size_t i = 0; i < row.latencies_us.size(); ++i) {
      const double norm = best / row.latencies_us[i];  // throughput, best = 1
      normalized[i].push_back(norm);
      cells.push_back(TablePrinter::fmt(norm, 3));
    }
    t.add_row(std::move(cells));
  }
  std::vector<std::string> geo{"GeoMean"};
  for (const auto& series : normalized) {
    geo.push_back(TablePrinter::fmt(geomean(series), 3));
  }
  t.add_row(std::move(geo));
  t.print();

  std::printf("-- raw latencies (ms) --\n");
  TablePrinter raw(header);
  for (const SeriesRow& row : rows) {
    std::vector<std::string> cells{row.model};
    for (double l : row.latencies_us) {
      cells.push_back(TablePrinter::fmt(l / 1000.0, 3));
    }
    raw.add_row(std::move(cells));
  }
  raw.print();
  std::printf("\n");
}

struct NamedModel {
  std::string name;
  Graph (*build)(int batch);
};

inline std::vector<NamedModel> paper_models() {
  return {
      {"Inception V3", [](int b) { return models::inception_v3(b); }},
      {"RandWire", [](int b) { return models::randwire(b); }},
      {"NasNet", [](int b) { return models::nasnet_a(b); }},
      {"SqueezeNet", [](int b) { return models::squeezenet(b); }},
  };
}

/// The "model name" of the first processor in /proc/cpuinfo, or "unknown".
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

/// Where the numbers came from: online processors, uname, and CPU model.
/// Committed bench files carry it, so a later run can tell whether it is
/// comparable.
inline JsonValue host_info() {
  JsonValue host = JsonValue::object();
  host.set("nproc",
           static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  struct utsname u {};
  if (uname(&u) == 0) {
    host.set("uname", std::string(u.sysname) + " " + u.release + " " +
                          u.version + " " + u.machine);
  }
  host.set("cpu_model", cpu_model());
  return host;
}

}  // namespace ios::bench
