#pragma once
// Shared pieces of the benchmark: the wall clock, order statistics that
// treat a failed request as infinitely slow, the span recorder behind
// --trace 1, the host drift probe, and the result every workload fills.

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace iosbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Microseconds on the steady clock since the first call in this process.
double now_us();

/// Sleeps until now_us() reaches `t_us` (returns at once if it has).
void sleep_until_us(double t_us);

/// Nearest-rank percentile (p in (0, 100]) of `xs`. +inf entries (failed
/// requests) sort last, so a tail with failures reads as infinite. 0 when
/// `xs` is empty.
double percentile(std::vector<double> xs, double p);

/// The 50th nearest-rank percentile.
inline double median(std::vector<double> xs) {
  return percentile(std::move(xs), 50);
}

/// One recorded span: a layer call timed from the benchmark's own code.
struct Span {
  const char* name = "";  ///< static string: the layer the span times
  double start_us = 0;
  double end_us = 0;
  int parent = -1;            ///< id of the causing span, -1 = root
  std::int64_t request = -1;  ///< op or request the span belongs to
};

/// Per-name aggregate of the recorded spans.
struct LayerTime {
  std::string name;
  std::int64_t count = 0;
  double total_ms = 0;
  /// Span time not covered by child spans.
  double self_ms = 0;
};

/// In-memory span store, written once at exit as Chrome trace JSON.
/// Thread-safe. A disabled tracer records nothing and returns -1 ids, so
/// untraced runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span starting at `start_us` and returns its id; close() sets
  /// its end. Parents are opened before their children.
  int open(const char* name, double start_us, int parent = -1,
           std::int64_t request = -1);
  void close(int id, double end_us);

  /// Records a finished span and returns its id.
  int record(const char* name, double start_us, double end_us,
             int parent = -1, std::int64_t request = -1);

  std::size_t size() const;

  /// Count, total and self time per span name, largest self time first.
  std::vector<LayerTime> layer_times() const;

  /// Writes every span as a Chrome trace ("X" events, microseconds).
  void write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; a span's id is its index
};

/// Times a fixed ALU loop and a fixed memory sweep. Neither touches the
/// program under test: they tell host drift apart from a regression.
struct HostProbe {
  double alu_ms = 0;
  double mem_ms = 0;
};
HostProbe probe_host();

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// What one run was asked to do.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir;  ///< scratch files and the Chrome trace go here
};

/// What one run measured and whether its outputs were right.
struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// End-to-end metrics (printed by untraced runs).
  std::map<std::string, double> end_to_end;
  /// Per-layer metrics (printed by traced runs).
  std::map<std::string, double> per_layer;
  std::vector<std::string> errors;  ///< correctness-gate failures

  bool correct() const { return errors.empty(); }
  void fail(const std::string& why) { errors.push_back(why); }
};

/// Human-readable lines go to stdout before the final JSON line.
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace iosbench
