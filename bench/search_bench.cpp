// Search-engine benchmark: pins the DP search core's constant factors. Per
// model it runs the serial recursive reference, the wave engine at 1/2/4
// threads, the dominance pruner, and a beam-width frontier — and gates the
// ratios, not just correctness.
//
// Measurement protocol: every timed run shares ONE CostModel per model that
// a single untimed exact pass has already warmed. Exact enumeration visits
// a superset of every stage any engine or prune mode can request, so each
// timed run is 100% cache-warm: wall time measures the search engine's own
// work (enumeration, hashing, memo upkeep, pruning bookkeeping), not the
// stage simulator. That makes states/sec comparable across engines and
// reproducible on loaded or single-core CI hosts, where cold multi-thread
// walls are dominated by simulator time and scheduler jitter.
//
// Peak RSS is measured in a forked child (getrusage RUSAGE_SELF), forked
// BEFORE any in-process search so the child inherits a pristine parent
// image and its ru_maxrss is the wave engine's own cold search state plus
// that fixed image.
//
// Like bench_optimizer this is a plain main() (no google-benchmark) that
// writes machine-readable JSON for the perf trajectory:
//
//   $ ./bench_search [out.json] [repeats]     # default: BENCH_search.json, 2
//
// The output JSON also records the host (nproc, uname, CPU model), so a
// committed copy can be compared against a later run on the same machine.
//
// Exit status is the CI gate; any of these fail the run:
//   - exactness: wave@{1,2,4} bit-identical to serial (latency, stages,
//     states, transitions) — divergence is fatal;
//   - dominance: the exact optimum latency (tie-broken schedules may
//     differ), latency_gap_bound_us == 0, strictly fewer distinct stage
//     profiles than exact (cold, deterministic), and lower aggregate COLD
//     wall time — cold is where pruning pays, since the saving is skipped
//     stage simulations;
//   - beam: found latency never below exact, and the certified bound holds
//     (found - gap_bound <= exact) at every width;
//   - throughput (aggregate warm states/sec, each side the best of >= 3
//     interleaved runs): wave@1 >= 1.0x serial@1 on every host, and
//     wave@4 >= 2.5x serial@1 on hosts with at least 4 hardware threads;
//   - memory: the wave engine's cold peak RSS at 4 threads on randwire
//     (largest search), forked, at most 63,488 KiB (62 MiB): about 1.3x
//     the 48,636 KiB the O(states) engine reads on a 4-core Xeon VM. An
//     engine that stores every transition (4.7M on randwire) read ~137 MiB.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "core/scheduler.hpp"
#include "models/models.hpp"
#include "runtime/executor.hpp"
#include "sim/device.hpp"
#include "util/json.hpp"

namespace {

using namespace ios;

// Warm aggregate states/sec ratios to serial@1.
constexpr double kWave1VsSerialGate = 1.0;  // every host
constexpr double kWave4VsSerialGate = 2.5;  // hosts with >= kGateThreads
constexpr int kGateThreads = 4;
// Cold forked peak RSS of wave@4 on randwire.
constexpr long kPeakRssLimitKb = 63488;

ExecConfig bench_config() {
  return ExecConfig{device_by_name("v100"), KernelModelParams{}};
}

struct RunResult {
  double wall_ms = 0;     // best-of-repeats host time of the search
  double latency_us = 0;  // executor latency of the found schedule
  std::size_t stages = 0;
  SchedulerStats stats;

  double states_per_sec() const {
    return static_cast<double>(stats.states) / (wall_ms / 1000.0);
  }
};

/// Timed searches against the shared warm cost model, one result per
/// option set. Repeats re-run every search (the per-block DP memo is
/// per-run; only stage latencies are shared) round-robin and keep each
/// set's best wall time, so the sides of a ratio gate sample the same host
/// conditions instead of consecutive time windows.
std::vector<RunResult> run_warm(const Graph& g, CostModel& cost,
                                const std::vector<SchedulerOptions>& configs,
                                int repeats) {
  std::vector<RunResult> out(configs.size());
  for (RunResult& r : out) r.wall_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < repeats; ++rep) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      SchedulerStats stats;
      const auto t0 = std::chrono::steady_clock::now();
      const Schedule q =
          IosScheduler(cost, configs[i]).schedule_graph(&stats);
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      RunResult& r = out[i];
      if (ms < r.wall_ms) r.wall_ms = ms;
      r.latency_us = Executor(g, bench_config()).schedule_latency_us(q);
      r.stages = q.stages.size();
      r.stats = stats;
    }
  }
  return out;
}

SchedulerOptions make_options(SearchEngine engine, int threads,
                              PruneMode prune = PruneMode::kExact,
                              int beam_width = 8) {
  SchedulerOptions options;
  options.engine = engine;
  options.num_threads = threads;
  options.prune = prune;
  options.beam_width = beam_width;
  return options;
}

/// Cold search in a forked child; returns the child's peak RSS in KiB, or
/// -1 on failure. Called before any in-process search so every child starts
/// from the same pristine parent image.
long forked_peak_rss_kb(const std::string& model, SearchEngine engine,
                        int threads) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return -1;
  }
  if (pid == 0) {
    close(fds[0]);
    {
      const Graph g = models::build_model(model, 1);
      CostModel cost(g, bench_config());
      SchedulerStats stats;
      const Schedule q =
          IosScheduler(cost, make_options(engine, threads)).schedule_graph(&stats);
      struct rusage ru {};
      getrusage(RUSAGE_SELF, &ru);
      long kb = q.stages.empty() ? -1 : ru.ru_maxrss;  // ru_maxrss is KiB on Linux
      if (write(fds[1], &kb, sizeof kb) != sizeof kb) _exit(1);
    }
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  long kb = -1;
  const ssize_t got = read(fds[0], &kb, sizeof kb);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != static_cast<ssize_t>(sizeof kb) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return -1;
  }
  return kb;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_search.json";
  const int repeats = argc > 2 ? std::max(1, std::atoi(argv[2])) : 2;
  const unsigned hw = std::thread::hardware_concurrency();
  const std::vector<std::string> models = {"randwire", "nasnet",
                                           "inception_v3"};
  const std::vector<int> wave_threads = {1, 2, 4};
  const std::vector<int> beam_widths = {2, 4, 8, 16};

  std::printf("search engines on %u hardware threads "
              "(warm-cache protocol, best of %d runs)\n\n",
              hw, repeats);

  // Peak RSS first: fork while this process has run no search, spawned no
  // pool threads, and touched no heap beyond argv handling.
  const std::string rss_model = "randwire";
  const long rss_wave_kb =
      forked_peak_rss_kb(rss_model, SearchEngine::kWave, kGateThreads);

  bool ok = true;
  // Aggregate warm states and seconds per gated configuration.
  double agg_states = 0;
  double agg_serial_sec = 0, agg_wave1_sec = 0, agg_wave4_sec = 0;
  double agg_exact_cold_ms = 0, agg_dominance_cold_ms = 0;
  JsonValue results = JsonValue::array();

  for (const std::string& model : models) {
    const Graph g = models::build_model(model, 1);

    // The cache-warming exact pass doubles as the cold-exact reference: its
    // wall time includes every stage simulation, and its (deterministic)
    // profile count anchors the dominance gate.
    CostModel cost(g, bench_config());
    SchedulerStats warm_stats;
    const auto tw0 = std::chrono::steady_clock::now();
    IosScheduler(cost, make_options(SearchEngine::kWave, kGateThreads))
        .schedule_graph(&warm_stats);
    const double exact_cold_ms = std::chrono::duration<double, std::milli>(
                                     std::chrono::steady_clock::now() - tw0)
                                     .count();
    const std::int64_t exact_profiles = warm_stats.measurements;

    // Dominance evaluates a subset of exact's endings, so a fresh model
    // shows how many stage profiles (and how much cold wall) it saved.
    std::int64_t dominance_profiles = 0;
    double dominance_cold_ms = 0;
    {
      CostModel cold(g, bench_config());
      SchedulerStats stats;
      const auto t0 = std::chrono::steady_clock::now();
      IosScheduler(cold, make_options(SearchEngine::kAuto, kGateThreads,
                                      PruneMode::kDominance))
          .schedule_graph(&stats);
      dominance_cold_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
      dominance_profiles = stats.measurements;
    }
    agg_exact_cold_ms += exact_cold_ms;
    agg_dominance_cold_ms += dominance_cold_ms;

    // Serial and every wave thread count run interleaved, each best of at
    // least three: best-of-N keeps a stray scheduler hiccup on a loaded
    // host from deciding a states/sec ratio.
    std::vector<SchedulerOptions> engines{
        make_options(SearchEngine::kSerial, 1)};
    for (const int threads : wave_threads) {
      engines.push_back(make_options(SearchEngine::kWave, threads));
    }
    const std::vector<RunResult> runs =
        run_warm(g, cost, engines, std::max(repeats, 3));
    const RunResult& serial = runs[0];
    std::printf("%-14s serial   %9.2f ms  (%lld states, %lld transitions, "
                "%lld profiles)\n",
                model.c_str(), serial.wall_ms,
                static_cast<long long>(serial.stats.states),
                static_cast<long long>(serial.stats.transitions),
                static_cast<long long>(exact_profiles));

    const auto check_identical = [&](const char* name, const RunResult& r) {
      const bool identical = r.latency_us == serial.latency_us &&
                             r.stages == serial.stages &&
                             r.stats.states == serial.stats.states &&
                             r.stats.transitions == serial.stats.transitions;
      if (!identical) {
        std::fprintf(stderr,
                     "FAIL: %s %s diverged from serial "
                     "(latency %.6f vs %.6f us, %zu vs %zu stages)\n",
                     model.c_str(), name, r.latency_us, serial.latency_us,
                     r.stages, serial.stages);
        ok = false;
      }
      return identical;
    };

    agg_states += static_cast<double>(serial.stats.states);
    agg_serial_sec += serial.wall_ms / 1000.0;

    JsonValue entry = JsonValue::object();
    entry.set("model", model);
    entry.set("device", "v100");
    entry.set("states", serial.stats.states);
    entry.set("transitions", serial.stats.transitions);
    entry.set("latency_us", serial.latency_us);
    entry.set("serial_wall_ms", serial.wall_ms);
    entry.set("exact_profiles", exact_profiles);

    JsonValue waves = JsonValue::object();
    for (std::size_t i = 0; i < wave_threads.size(); ++i) {
      const int threads = wave_threads[i];
      const RunResult& wave = runs[i + 1];
      const bool identical =
          check_identical(("wave@" + std::to_string(threads)).c_str(), wave);
      std::printf("               wave@%d   %9.2f ms  (%.0f states/s, "
                  "%.2fx serial)%s\n",
                  threads, wave.wall_ms, wave.states_per_sec(),
                  serial.wall_ms / wave.wall_ms,
                  identical ? "" : "  [MISMATCH]");
      JsonValue w = JsonValue::object();
      w.set("wall_ms", wave.wall_ms);
      w.set("states_per_sec", wave.states_per_sec());
      w.set("ratio_vs_serial", serial.wall_ms / wave.wall_ms);
      waves.set(std::to_string(threads), std::move(w));
      if (threads == 1) agg_wave1_sec += wave.wall_ms / 1000.0;
      if (threads == kGateThreads) agg_wave4_sec += wave.wall_ms / 1000.0;
    }
    entry.set("wave", std::move(waves));

    // Dominance: the exact optimum latency (equal-latency tie-breaks may
    // pick a different partition), certified zero gap, fewer profiles.
    const RunResult dom =
        run_warm(g, cost,
                 {make_options(SearchEngine::kAuto, kGateThreads,
                               PruneMode::kDominance)},
                 repeats)
            .front();
    if (dom.latency_us != serial.latency_us) {
      std::fprintf(stderr,
                   "FAIL: %s dominance missed the optimum "
                   "(latency %.6f vs %.6f us)\n",
                   model.c_str(), dom.latency_us, serial.latency_us);
      ok = false;
    }
    if (dom.stats.latency_gap_bound_us != 0) {
      std::fprintf(stderr, "FAIL: %s dominance reported a nonzero gap bound "
                   "(%.6f us)\n",
                   model.c_str(), dom.stats.latency_gap_bound_us);
      ok = false;
    }
    if (dominance_profiles >= exact_profiles) {
      std::fprintf(stderr,
                   "FAIL: %s dominance measured %lld profiles, exact %lld — "
                   "pruning saved nothing\n",
                   model.c_str(), static_cast<long long>(dominance_profiles),
                   static_cast<long long>(exact_profiles));
      ok = false;
    }
    std::printf("               dom@%d    %9.2f ms cold, %8.2f ms warm  "
                "(%lld of %lld profiles, %lld states cut, gap 0)\n",
                kGateThreads, dominance_cold_ms, dom.wall_ms,
                static_cast<long long>(dominance_profiles),
                static_cast<long long>(exact_profiles),
                static_cast<long long>(dom.stats.pruned_states));
    JsonValue domj = JsonValue::object();
    domj.set("wall_ms", dom.wall_ms);
    domj.set("cold_wall_ms", dominance_cold_ms);
    domj.set("exact_cold_wall_ms", exact_cold_ms);
    domj.set("profiles", dominance_profiles);
    domj.set("pruned_states", dom.stats.pruned_states);
    domj.set("trimmed_transitions", dom.stats.beam_trimmed);
    domj.set("latency_gap_bound_us", dom.stats.latency_gap_bound_us);
    entry.set("dominance4", std::move(domj));

    // Beam frontier: latency vs certified gap bound per width.
    JsonValue beams = JsonValue::array();
    for (const int width : beam_widths) {
      const RunResult beam =
          run_warm(g, cost,
                   {make_options(SearchEngine::kAuto, kGateThreads,
                                 PruneMode::kBeam, width)},
                   repeats)
              .front();
      const double eps = 1e-6 * serial.latency_us;
      if (beam.latency_us + eps < serial.latency_us) {
        std::fprintf(stderr,
                     "FAIL: %s beam:%d found %.6f us, below the exact "
                     "optimum %.6f us\n",
                     model.c_str(), width, beam.latency_us, serial.latency_us);
        ok = false;
      }
      if (beam.latency_us - beam.stats.latency_gap_bound_us >
          serial.latency_us + eps) {
        std::fprintf(stderr,
                     "FAIL: %s beam:%d certified bound violated — found "
                     "%.6f us, gap %.6f us, exact %.6f us\n",
                     model.c_str(), width, beam.latency_us,
                     beam.stats.latency_gap_bound_us, serial.latency_us);
        ok = false;
      }
      std::printf("               beam:%-3d %9.2f ms  (latency +%.3f us, "
                  "gap bound %.3f us, %lld trimmed)\n",
                  width, beam.wall_ms, beam.latency_us - serial.latency_us,
                  beam.stats.latency_gap_bound_us,
                  static_cast<long long>(beam.stats.beam_trimmed));
      JsonValue b = JsonValue::object();
      b.set("width", static_cast<std::int64_t>(width));
      b.set("wall_ms", beam.wall_ms);
      b.set("latency_us", beam.latency_us);
      b.set("latency_delta_us", beam.latency_us - serial.latency_us);
      b.set("latency_gap_bound_us", beam.stats.latency_gap_bound_us);
      b.set("trimmed_transitions", beam.stats.beam_trimmed);
      beams.push_back(std::move(b));
    }
    entry.set("beam4", std::move(beams));
    results.push_back(std::move(entry));
    std::printf("\n");
  }

  // Aggregate gates — summed over the model zoo so the verdict rides the
  // largest searches instead of per-model timer noise. Every engine solves
  // the same states, so a states/sec ratio is a wall-time ratio.
  const double serial_sps = agg_states / agg_serial_sec;
  const double wave1_ratio = agg_serial_sec / agg_wave1_sec;
  const double wave4_ratio = agg_serial_sec / agg_wave4_sec;
  const bool wave4_gated = hw >= static_cast<unsigned>(kGateThreads);
  if (wave1_ratio < kWave1VsSerialGate) {
    std::fprintf(stderr,
                 "FAIL: aggregate wave@1 states/sec only %.2fx serial@1 "
                 "(gate %.2fx)\n",
                 wave1_ratio, kWave1VsSerialGate);
    ok = false;
  }
  if (wave4_gated && wave4_ratio < kWave4VsSerialGate) {
    std::fprintf(stderr,
                 "FAIL: aggregate wave@%d states/sec only %.2fx serial@1 "
                 "(gate %.2fx)\n",
                 kGateThreads, wave4_ratio, kWave4VsSerialGate);
    ok = false;
  }
  if (agg_dominance_cold_ms >= agg_exact_cold_ms) {
    std::fprintf(stderr,
                 "FAIL: dominance aggregate cold wall %.2f ms not below "
                 "exact %.2f ms\n",
                 agg_dominance_cold_ms, agg_exact_cold_ms);
    ok = false;
  }
  if (rss_wave_kb <= 0) {
    std::fprintf(stderr, "FAIL: peak-RSS fork measurement failed\n");
    ok = false;
  } else if (rss_wave_kb > kPeakRssLimitKb) {
    std::fprintf(stderr,
                 "FAIL: wave@%d peak RSS %ld KiB above the %ld KiB limit on "
                 "%s\n",
                 kGateThreads, rss_wave_kb, kPeakRssLimitKb,
                 rss_model.c_str());
    ok = false;
  }
  std::printf("aggregate: serial@1 %.0f states/s; wave@1 %.2fx (gate %.1fx), "
              "wave@%d %.2fx (gate %.1fx%s)\n",
              serial_sps, wave1_ratio, kWave1VsSerialGate, kGateThreads,
              wave4_ratio, kWave4VsSerialGate,
              wave4_gated ? "" : ", skipped: too few hardware threads");
  std::printf("aggregate: dominance %.2f ms vs exact %.2f ms (cold)\n",
              agg_dominance_cold_ms, agg_exact_cold_ms);
  std::printf("peak RSS (%s, cold, forked): wave@%d %ld KiB (limit %ld KiB)\n",
              rss_model.c_str(), kGateThreads, rss_wave_kb, kPeakRssLimitKb);

  JsonValue gates = JsonValue::object();
  gates.set("protocol", "warm-cache");
  gates.set("serial1_states_per_sec", serial_sps);
  gates.set("wave1_vs_serial1", wave1_ratio);
  gates.set("wave1_vs_serial1_gate", kWave1VsSerialGate);
  gates.set("wave4_vs_serial1", wave4_ratio);
  gates.set("wave4_vs_serial1_gate", kWave4VsSerialGate);
  gates.set("wave4_vs_serial1_gated", wave4_gated);
  gates.set("dominance_cold_wall_ms", agg_dominance_cold_ms);
  gates.set("exact_cold_wall_ms", agg_exact_cold_ms);
  JsonValue rss = JsonValue::object();
  rss.set("model", rss_model);
  rss.set("wave4_kb", static_cast<std::int64_t>(rss_wave_kb));
  rss.set("limit_kb", static_cast<std::int64_t>(kPeakRssLimitKb));
  gates.set("peak_rss", std::move(rss));

  JsonValue root = JsonValue::object();
  root.set("bench", "search");
  root.set("unit", "ms");
  root.set("host", bench::host_info());
  root.set("hardware_threads", static_cast<std::int64_t>(hw));
  root.set("repeats", static_cast<std::int64_t>(repeats));
  root.set("gates", std::move(gates));
  root.set("results", std::move(results));
  write_file(out_path, root.dump());
  std::printf("\nwrote %s\n", out_path.c_str());
  if (!ok) {
    std::fprintf(stderr, "search bench FAILED\n");
    return 1;
  }
  return 0;
}
