#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace iosbench {

namespace {

std::chrono::steady_clock::time_point epoch() {
  static const auto t = std::chrono::steady_clock::now();
  return t;
}

}  // namespace

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch())
      .count();
}

void sleep_until_us(double t_us) {
  std::this_thread::sleep_until(
      epoch() + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::micro>(t_us)));
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size());
  std::size_t idx = static_cast<std::size_t>(rank);
  if (static_cast<double>(idx) < rank) ++idx;  // ceil
  idx = std::clamp<std::size_t>(idx, 1, xs.size());
  return xs[idx - 1];
}

int Tracer::open(const char* name, double start_us, int parent,
                 std::int64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_us, start_us, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int id, double end_us) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(id)).end_us = end_us;
}

int Tracer::record(const char* name, double start_us, double end_us,
                   int parent, std::int64_t request) {
  const int id = open(name, start_us, parent, request);
  close(id, end_us);
  return id;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<LayerTime> Tracer::layer_times() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of each span, clipped to the parent's interval.
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    const double a = std::max(s.start_us, p.start_us);
    const double b = std::min(s.end_us, p.end_us);
    if (b > a) kids[static_cast<std::size_t>(s.parent)].push_back({a, b});
  }
  std::map<std::string, LayerTime> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Self time = duration minus the union of the child intervals.
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_a = 0, cur_b = -kInf;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    LayerTime& lt = by_name[s.name];
    lt.name = s.name;
    ++lt.count;
    lt.total_ms += (s.end_us - s.start_us) / 1000.0;
    lt.self_ms += (s.end_us - s.start_us - covered) / 1000.0;
  }
  std::vector<LayerTime> out;
  for (auto& [name, lt] : by_name) out.push_back(lt);
  std::sort(out.begin(), out.end(), [](const LayerTime& a, const LayerTime& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << "{\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"request\":%lld}}",
                  i ? ",\n" : "\n", s.name, s.parent < 0 ? 0 : 1, s.start_us,
                  s.end_us - s.start_us, i, s.parent,
                  static_cast<long long>(s.request));
    out << buf;
  }
  out << "\n]}\n";
}

HostProbe probe_host() {
  HostProbe probe;
  double t0 = now_us();
  // Fixed ALU loop: a dependent xorshift chain the compiler cannot fold.
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  probe.alu_ms = (now_us() - t0) / 1000.0;
  // Fixed memory sweep: 8 MB, one word per cache line, 64 passes. Small
  // enough that the probe never sets the run's peak RSS.
  std::vector<std::uint64_t> buf(1u << 20, x | 1);
  t0 = now_us();
  std::uint64_t sum = 0;
  for (int pass = 0; pass < 64; ++pass) {
    for (std::size_t i = 0; i < buf.size(); i += 8) {
      buf[i] += static_cast<std::uint64_t>(pass);
      sum += buf[i];
    }
  }
  probe.mem_ms = (now_us() - t0) / 1000.0;
  // Keeps both loops observable.
  if ((sum ^ x) == 42) std::fputs("", stderr);
  return probe;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: kB
}

void note(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

}  // namespace iosbench
