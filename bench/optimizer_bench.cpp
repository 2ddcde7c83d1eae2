// Facade benchmark: times ios::Optimizer cold (full profile + DP search)
// versus warm (recipe-cache hit) on zoo models, then the profile database
// that makes warm starts across processes possible, and writes the results
// as machine-readable JSON for the perf trajectory. Unlike the other bench
// binaries this is a plain main() with no google-benchmark dependency, so CI
// can always run it.
//
//   $ ./bench_optimizer [out.json] [full|smoke]
//     # default: BENCH_optimizer.json, full
//
// The profile_db section fills a database from a suite (exact, v100,
// batch 1, 4 threads): inception_v3, nasnet and randwire in a full run,
// squeezenet and inception_v3 in smoke mode. On that database it times,
// each the median of 3:
//   - v1 (JSON: with_content_checksum(to_json()).dump() written atomically,
//     and ProfileDb::load of that file) against v2 (ProfileDb::save/load),
//     in ms and bytes;
//   - CostModel::load_profile into a fresh model per suite model;
//   - a prewarm sequence, one Optimizer running one model at batch 1 and
//     then another at several batches, 4 threads: with no db, with a fresh
//     db (every miss rewrites the file), and with the db the fresh run
//     filled (0 new simulations).
// Exit status is the gate. Every run checks exactness: the v1 and v2 loads
// hold the same entries (compared through v2's deterministic bytes), the
// v2 file is 16 bytes per entry plus headers, the filled-db sequence
// simulates nothing, and every call's latency bits match across the three
// sequences. A full run also requires v2 load and save to each be >= 10x
// faster than v1, and the filled-db sequence to beat the no-db one. Smoke
// mode (the ctest entry) gates exactness only, so host load cannot fail it.
// Scratch files live in a temporary directory that is removed at exit.

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "api/optimizer.hpp"
#include "bench/common.hpp"
#include "runtime/profile_db.hpp"
#include "util/json.hpp"

namespace {

using namespace ios;

constexpr double kMinDbSpeedup = 10.0;
constexpr int kReps = 3;
constexpr int kThreads = 4;

double wall_ms(std::chrono::steady_clock::time_point begin,
               std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

/// Wall ms of f().
template <typename F>
double time_ms(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  return wall_ms(t0, std::chrono::steady_clock::now());
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

JsonValue to_json_array(const std::vector<double>& v) {
  JsonValue a = JsonValue::array();
  for (const double x : v) a.push_back(x);
  return a;
}

OptimizationRequest suite_request(const std::string& model, int batch,
                                  const std::string& db) {
  OptimizationRequest request = OptimizationRequest::for_model(model, "v100",
                                                               batch);
  request.baselines.clear();
  request.options.num_threads = kThreads;
  request.profile_db = db;
  return request;
}

/// One prewarm-sequence run: wall ms, new simulations, and every call's
/// latency bits.
struct SequenceRun {
  double wall_ms = 0;
  std::int64_t new_measurements = 0;
  std::vector<std::uint64_t> latency_bits;
};

SequenceRun run_sequence(
    const std::vector<std::pair<std::string, int>>& sequence,
    const std::string& db) {
  Optimizer optimizer;
  SequenceRun run;
  run.wall_ms = time_ms([&] {
    for (const auto& [model, batch] : sequence) {
      const OptimizationResult r =
          optimizer.optimize(suite_request(model, batch, db));
      run.new_measurements += r.new_measurements;
      run.latency_bits.push_back(std::bit_cast<std::uint64_t>(r.latency_us));
    }
  });
  return run;
}

/// The profile_db section; appends any failed gate to `failures`.
JsonValue bench_profile_db(bool full, const std::string& dir,
                           std::vector<std::string>& failures) {
  const std::vector<std::string> suite =
      full ? std::vector<std::string>{"inception_v3", "nasnet", "randwire"}
           : std::vector<std::string>{"squeezenet", "inception_v3"};
  const std::vector<std::pair<std::string, int>> sequence =
      full ? std::vector<std::pair<std::string, int>>{{"inception_v3", 1},
                                                      {"nasnet", 1},
                                                      {"nasnet", 2},
                                                      {"nasnet", 4},
                                                      {"nasnet", 8}}
           : std::vector<std::pair<std::string, int>>{{"squeezenet", 1},
                                                      {"inception_v3", 1},
                                                      {"inception_v3", 2}};
  const auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    failures.push_back(what);
  };

  // Fill the suite's database through the facade, as a warm-start loop's
  // first run would.
  const std::string suite_db = dir + "/suite.db";
  for (const std::string& model : suite) {
    Optimizer().optimize(suite_request(model, 1, suite_db));
  }
  const ProfileDb db = ProfileDb::load(suite_db);

  const std::string v1 = dir + "/v1.json";
  const std::string v2 = dir + "/v2.db";
  std::vector<double> v1_save, v1_load, v2_save, v2_load, install;
  std::string v1_bytes, v2_bytes;
  for (int rep = 0; rep < kReps; ++rep) {
    v1_save.push_back(time_ms([&] {
      write_file_atomic(v1, with_content_checksum(db.to_json()).dump());
    }));
    ProfileDb from_v1;
    v1_load.push_back(time_ms([&] { from_v1 = ProfileDb::load(v1); }));
    v2_save.push_back(time_ms([&] { db.save(v2); }));
    ProfileDb from_v2;
    v2_load.push_back(time_ms([&] { from_v2 = ProfileDb::load(v2); }));
    double ms = 0;
    for (const std::string& model : suite) {
      const Graph g = models::build_model(model, 1);
      CostModel cost(g, ExecConfig{device_by_name("v100"), {}});
      ms += time_ms([&] { cost.load_profile(from_v2); });
    }
    install.push_back(ms);
    if (rep == 0) {
      // v2 bytes are a pure function of the contents, so equal bytes mean
      // equal entries, bit for bit.
      v1_bytes = read_file(v1);
      v2_bytes = read_file(v2);
      from_v1.save(v2 + ".check");
      if (read_file(v2 + ".check") != v2_bytes) {
        fail("v1 and v2 loads of the suite db hold different entries");
      }
      from_v2.save(v2 + ".check");
      if (read_file(v2 + ".check") != v2_bytes) {
        fail("v2 save/load/save is not byte-stable");
      }
    }
  }
  const std::size_t expected_bytes =
      8 + 16 * db.num_contexts() + 16 * db.num_entries() + 8;
  if (v2_bytes.size() != expected_bytes) {
    fail("v2 file is " + std::to_string(v2_bytes.size()) + " bytes, not " +
         std::to_string(expected_bytes));
  }
  const double load_speedup = median(v1_load) / median(v2_load);
  const double save_speedup = median(v1_save) / median(v2_save);
  std::printf("profile db: %zu entries in %zu contexts; v1 %zu bytes, save "
              "%.1f ms, load %.1f ms; v2 %zu bytes, save %.1f ms, load "
              "%.1f ms (%.1fx / %.1fx); load_profile %.1f ms\n",
              db.num_entries(), db.num_contexts(), v1_bytes.size(),
              median(v1_save), median(v1_load), v2_bytes.size(),
              median(v2_save), median(v2_load), save_speedup, load_speedup,
              median(install));

  // The prewarm sequence, the three variants interleaved per rep so host
  // drift spreads evenly. Each db run opens a path the process-wide
  // registry has not seen, so it pays its load like a new process would.
  std::vector<SequenceRun> none, fresh, filled;
  for (int rep = 0; rep < kReps; ++rep) {
    none.push_back(run_sequence(sequence, ""));
    const std::string fresh_db = dir + "/fresh-" + std::to_string(rep) + ".db";
    fresh.push_back(run_sequence(sequence, fresh_db));
    const std::string filled_db = dir + "/filled-" + std::to_string(rep) + ".db";
    std::filesystem::copy_file(dir + "/fresh-0.db", filled_db);
    filled.push_back(run_sequence(sequence, filled_db));
  }
  const auto walls = [](const std::vector<SequenceRun>& runs) {
    std::vector<double> v;
    for (const SequenceRun& r : runs) v.push_back(r.wall_ms);
    return v;
  };
  for (int rep = 0; rep < kReps; ++rep) {
    if (filled[rep].new_measurements != 0) {
      fail("the filled-db sequence ran " +
           std::to_string(filled[rep].new_measurements) + " new simulations");
    }
    if (fresh[rep].latency_bits != none[rep].latency_bits ||
        filled[rep].latency_bits != none[rep].latency_bits) {
      fail("a db changed a found latency in prewarm rep " +
           std::to_string(rep));
    }
  }
  const double none_ms = median(walls(none));
  const double fresh_ms = median(walls(fresh));
  const double filled_ms = median(walls(filled));
  std::printf("prewarm sequence (%zu calls, %d threads, median of %d): "
              "no db %.1f ms, fresh db %.1f ms, filled db %.1f ms\n",
              sequence.size(), kThreads, kReps, none_ms, fresh_ms, filled_ms);

  if (full) {
    if (load_speedup < kMinDbSpeedup) {
      fail("v2 load only " + std::to_string(load_speedup) + "x v1");
    }
    if (save_speedup < kMinDbSpeedup) {
      fail("v2 save only " + std::to_string(save_speedup) + "x v1");
    }
    if (filled_ms >= none_ms) {
      fail("the filled-db sequence (" + std::to_string(filled_ms) +
           " ms) did not beat the no-db one (" + std::to_string(none_ms) +
           " ms)");
    }
  }

  JsonValue suite_json = JsonValue::array();
  for (const std::string& m : suite) suite_json.push_back(m);
  JsonValue sequence_json = JsonValue::array();
  for (const auto& [model, batch] : sequence) {
    sequence_json.push_back(model + "@" + std::to_string(batch));
  }
  const auto format = [](std::size_t bytes, const std::vector<double>& save,
                         const std::vector<double>& load) {
    JsonValue f = JsonValue::object();
    f.set("bytes", static_cast<std::int64_t>(bytes));
    f.set("save_ms", median(save));
    f.set("load_ms", median(load));
    f.set("save_ms_runs", to_json_array(save));
    f.set("load_ms_runs", to_json_array(load));
    return f;
  };
  JsonValue prewarm = JsonValue::object();
  prewarm.set("sequence", std::move(sequence_json));
  prewarm.set("threads", kThreads);
  prewarm.set("no_db_ms", none_ms);
  prewarm.set("fresh_db_ms", fresh_ms);
  prewarm.set("filled_db_ms", filled_ms);
  prewarm.set("no_db_ms_runs", to_json_array(walls(none)));
  prewarm.set("fresh_db_ms_runs", to_json_array(walls(fresh)));
  prewarm.set("filled_db_ms_runs", to_json_array(walls(filled)));
  prewarm.set("fresh_db_new_measurements", fresh[0].new_measurements);
  prewarm.set("filled_db_new_measurements", filled[0].new_measurements);

  JsonValue section = JsonValue::object();
  section.set("suite", std::move(suite_json));
  section.set("reps", kReps);
  section.set("contexts", static_cast<std::int64_t>(db.num_contexts()));
  section.set("entries", static_cast<std::int64_t>(db.num_entries()));
  section.set("v1", format(v1_bytes.size(), v1_save, v1_load));
  section.set("v2", format(v2_bytes.size(), v2_save, v2_load));
  section.set("load_speedup", load_speedup);
  section.set("save_speedup", save_speedup);
  section.set("speedup_gate", full ? kMinDbSpeedup : 0.0);
  section.set("load_profile_ms", median(install));
  section.set("prewarm", std::move(prewarm));
  return section;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_optimizer.json";
  const std::string mode = argc > 2 ? argv[2] : "full";
  if (mode != "full" && mode != "smoke") {
    std::fprintf(stderr, "usage: bench_optimizer [out.json] [full|smoke]\n");
    return 2;
  }
  const std::vector<std::string> models = {"squeezenet", "inception_v3",
                                           "nasnet"};

  Optimizer optimizer;
  JsonValue results = JsonValue::array();
  for (const std::string& model : models) {
    const OptimizationRequest request =
        OptimizationRequest::for_model(model, "v100", 1);

    const auto t0 = std::chrono::steady_clock::now();
    const OptimizationResult cold = optimizer.optimize(request);
    const auto t1 = std::chrono::steady_clock::now();
    const OptimizationResult warm = optimizer.optimize(request);
    const auto t2 = std::chrono::steady_clock::now();

    const double cold_ms = wall_ms(t0, t1);
    const double warm_ms = wall_ms(t1, t2);
    std::printf("%-14s cold %8.1f ms (%lld profiles) | cached %6.2f ms "
                "(hit=%d) | IOS %.3f ms, %.2fx over sequential\n",
                model.c_str(), cold_ms,
                static_cast<long long>(cold.new_measurements), warm_ms,
                warm.cache_hit ? 1 : 0, cold.latency_us / 1000.0,
                cold.baseline("sequential")->speedup);

    JsonValue entry = JsonValue::object();
    entry.set("model", model);
    entry.set("device", "v100");
    entry.set("batch", 1);
    entry.set("cold_wall_ms", cold_ms);
    entry.set("cached_wall_ms", warm_ms);
    entry.set("cache_hit", warm.cache_hit);
    entry.set("measurements", cold.new_measurements);
    entry.set("cached_measurements", warm.new_measurements);
    entry.set("search_states", cold.stats.states);
    entry.set("search_wall_ms", cold.stats.search_wall_ms);
    entry.set("profiling_cost_us", cold.stats.profiling_cost_us);
    entry.set("ios_latency_us", cold.latency_us);
    entry.set("sequential_latency_us",
              cold.baseline("sequential")->latency_us);
    entry.set("greedy_latency_us", cold.baseline("greedy")->latency_us);
    entry.set("speedup_over_sequential",
              cold.baseline("sequential")->speedup);
    results.push_back(std::move(entry));
  }

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("ios_bench_optimizer_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::vector<std::string> failures;
  JsonValue profile_db = bench_profile_db(mode == "full", dir, failures);
  std::filesystem::remove_all(dir);

  JsonValue root = JsonValue::object();
  root.set("bench", "optimizer");
  root.set("mode", mode);
  root.set("host", bench::host_info());
  root.set("unit", "ms");
  root.set("results", std::move(results));
  root.set("profile_db", std::move(profile_db));
  root.set("gates_passed", failures.empty());
  write_file(out_path, root.dump());
  std::printf("wrote %s\n", out_path.c_str());
  return failures.empty() ? 0 : 1;
}
