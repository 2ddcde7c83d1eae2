// serve_loopback: an in-process net::Daemon on 127.0.0.1 at time_scale 0,
// so executors never sleep and every measured microsecond belongs to the
// serving stack (net + serve); the recipe cache is prewarmed, so the search
// does no work. One client connection carries two phases:
//
//   A  open loop: Poisson arrivals at kRatePerS, each request timed from
//      the moment it was due, so a stall also charges the requests queued
//      behind it; a sender thread paces, the caller reads. A traced run
//      splits it into an untraced half and a half that records spans on
//      the request path, and reports the gap as the tracing overhead.
//   B  closed loop: kWindow requests outstanding, for saturation
//      throughput.

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gates.hpp"
#include "models/models.hpp"
#include "net/daemon.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "serve/clock.hpp"
#include "serve/engine.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace iosbench {
namespace {

using ios::net::Socket;
using ios::net::WireResponse;

const std::vector<std::string> kModels = {"squeezenet", "inception_v3",
                                          "googlenet"};
/// Request shares of the seed-permuted kModels: a skewed mix.
constexpr double kMixWeights[] = {0.6, 0.3, 0.1};
const std::vector<int> kBatchSizes = {1, 2, 4, 8};
/// Phase A offered load: about an eighth of saturation on a 4-core host.
constexpr double kRatePerS = 5000;
/// Short enough that the batching timer does not dominate p50.
constexpr double kQueueDelayUs = 200;
constexpr int kWindow = 64;
constexpr int kSetupReps = 11;
constexpr int kWarmupRequests = 256;
/// A request unanswered this long after the last send counts as failed.
constexpr double kAnswerTimeoutUs = 2e6;
/// Phase A lines replayed through the protocol codec (traced runs).
constexpr std::size_t kProtocolSample = 20000;

ios::net::DaemonOptions daemon_options() {
  ios::net::DaemonOptions o;
  o.serving.device = kDevice;
  o.serving.num_workers = 2;
  o.serving.batching.batch_sizes = kBatchSizes;
  o.serving.batching.max_queue_delay_us = kQueueDelayUs;
  o.prewarm_models = kModels;
  o.prewarm_threads = 4;
  o.time_scale = 0;
  o.io_threads = 2;
  return o;
}

/// The seeded skewed model mix.
class Mix {
 public:
  explicit Mix(ios::Rng& rng) : rng_(rng), order_(kModels) {
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[static_cast<std::size_t>(
                                   rng_.uniform_int(static_cast<int>(i)))]);
    }
  }

  const std::string& draw() {
    double u = rng_.uniform();
    for (std::size_t i = 0; i + 1 < order_.size(); ++i) {
      if ((u -= kMixWeights[i]) < 0) return order_[i];
    }
    return order_.back();
  }

 private:
  ios::Rng& rng_;
  std::vector<std::string> order_;
};

std::string request_line(std::int64_t id, const std::string& model) {
  ios::net::WireRequest request;
  request.id = id;
  request.model = model;
  return ios::net::format_request(request) + "\n";
}

/// Reads one response line before `give_up_us`; false on timeout/EOF/error.
bool read_answer(Socket& sock, double give_up_us, std::string& line) {
  const double left = give_up_us - now_us();
  if (left <= 0) return false;
  try {
    return sock.read_line_deadline(line, left) == ios::net::ReadStatus::kLine;
  } catch (const ios::net::SocketError&) {
    return false;
  }
}

/// Outcome of a closed loop.
struct Closed {
  std::vector<std::string> models;  ///< by id - first_id
  std::vector<Answer> answers;
  std::int64_t ok = 0;
  double start_us = 0;
  double end_us = 0;  ///< when the last answer arrived
  std::vector<std::string> problems;

  /// Ok answers per second over the whole loop.
  double rate_per_s() const {
    return end_us > start_us ? static_cast<double>(ok) /
                                   ((end_us - start_us) / 1e6)
                             : 0;
  }
};

/// Keeps `window` requests outstanding until `end_us` or until `limit`
/// requests were sent, then collects the rest.
Closed closed_loop(Socket& sock, Mix& mix, std::int64_t first_id, int window,
                   double end_us, std::size_t limit) {
  Closed c;
  auto send = [&] {
    const std::string& m = mix.draw();
    sock.write_all(request_line(first_id + static_cast<std::int64_t>(
                                               c.models.size()),
                                m));
    c.models.push_back(m);
  };
  c.start_us = now_us();
  try {
    while (static_cast<int>(c.models.size()) < window &&
           c.models.size() < limit) {
      send();
    }
    std::string line;
    while (c.answers.size() < c.models.size() &&
           read_answer(sock, now_us() + kAnswerTimeoutUs, line)) {
      const double at = now_us();
      try {
        const WireResponse resp = ios::net::parse_response(line);
        c.answers.push_back({resp.id, resp.ok, resp.model, resp.batch_size});
        if (resp.ok) ++c.ok;
      } catch (const std::exception& e) {
        c.problems.push_back(std::string("unparsable response: ") + e.what());
        c.answers.push_back({-1, false, "", 0});
      }
      if (at < end_us && c.models.size() < limit) send();
    }
    c.end_us = now_us();
  } catch (const std::exception& e) {
    c.problems.push_back(std::string("closed loop: ") + e.what());
  }
  for (auto& p : check_answers(c.models, first_id, c.answers, kBatchSizes)) {
    c.problems.push_back(std::move(p));
  }
  return c;
}

/// Outcome of the open loop, indexed by id - first_id.
struct Open {
  std::vector<std::string> models;
  std::vector<std::string> lines;
  std::vector<double> due_us, send_us, sent_us, recv_us;
  std::vector<int> spans;  ///< each request's root span (traced half only)
  std::vector<WireResponse> responses;
  std::vector<Answer> answers;
  std::vector<std::string> problems;
  std::int64_t ok = 0;
};

/// Runs the open loop for `seconds`. With an enabled `tracer` the sender
/// and the reader record each request's spans as they go, so the latency
/// of this loop includes the cost of tracing.
Open open_loop(Socket& sock, Mix& mix, ios::Rng& rng, std::int64_t first_id,
               double seconds, Tracer& tracer) {
  Open o;
  const std::size_t n = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(kRatePerS * seconds)));
  double t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    o.models.push_back(mix.draw());
    o.lines.push_back(
        request_line(first_id + static_cast<std::int64_t>(i), o.models[i]));
    o.due_us.push_back(t);
    t += -std::log(1.0 - rng.uniform()) / kRatePerS * 1e6;
  }
  const double start = now_us() + 20000;  // lets the sender start
  for (double& due : o.due_us) due += start;
  o.send_us.assign(n, 0);
  o.sent_us.assign(n, 0);
  o.recv_us.assign(n, -1);
  o.spans.assign(n, -1);
  o.responses.resize(n);
  const int phase = tracer.open("phase.open", now_us());

  std::string send_error;
  std::thread sender([&] {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);  // wake on time, not +50us
    try {
      for (std::size_t i = 0; i < n; ++i) {
        sleep_until_us(o.due_us[i]);
        o.send_us[i] = now_us();
        sock.write_all(o.lines[i]);
        o.sent_us[i] = now_us();
        if (tracer.enabled()) {
          const std::int64_t id = first_id + static_cast<std::int64_t>(i);
          o.spans[i] = tracer.open("request", o.due_us[i], phase, id);
          tracer.record("gen.wait", o.due_us[i], o.send_us[i], o.spans[i], id);
          tracer.record("net.send", o.send_us[i], o.sent_us[i], o.spans[i],
                        id);
        }
      }
    } catch (const std::exception& e) {
      send_error = e.what();
    }
  });
  const double give_up = o.due_us.back() + kAnswerTimeoutUs;
  std::string line;
  while (o.answers.size() < n && read_answer(sock, give_up, line)) {
    const double at = now_us();
    try {
      WireResponse resp = ios::net::parse_response(line);
      tracer.record("net.parse_response", at, now_us(), -1, resp.id);
      o.answers.push_back({resp.id, resp.ok, resp.model, resp.batch_size});
      const std::int64_t k = resp.id - first_id;
      if (k >= 0 && k < static_cast<std::int64_t>(n) &&
          o.recv_us[static_cast<std::size_t>(k)] < 0) {
        o.recv_us[static_cast<std::size_t>(k)] = at;
        if (resp.ok) ++o.ok;
        o.responses[static_cast<std::size_t>(k)] = std::move(resp);
      }
    } catch (const std::exception& e) {
      o.problems.push_back(std::string("unparsable response: ") + e.what());
      o.answers.push_back({-1, false, "", 0});
    }
  }
  sender.join();
  // The reader cannot see the sender's span ids without a lock, so each
  // request's wait for its answer is attached once both threads are done.
  for (std::size_t i = 0; i < n; ++i) {
    if (o.spans[i] < 0 || o.recv_us[i] < 0) continue;
    tracer.record("net.await", o.sent_us[i], o.recv_us[i], o.spans[i],
                  first_id + static_cast<std::int64_t>(i));
    tracer.close(o.spans[i], o.recv_us[i]);
  }
  tracer.close(phase, now_us());
  if (!send_error.empty()) o.problems.push_back("sender: " + send_error);
  for (auto& p : check_answers(o.models, first_id, o.answers, kBatchSizes)) {
    o.problems.push_back(std::move(p));
  }
  return o;
}

/// Latency of each open-loop request from its due time; a failed or
/// unanswered request is infinitely slow.
std::vector<double> latencies(const Open& o) {
  std::vector<double> out;
  for (std::size_t i = 0; i < o.models.size(); ++i) {
    const bool ok = o.recv_us[i] >= 0 && o.responses[i].ok;
    out.push_back(ok ? o.recv_us[i] - o.due_us[i] : kInf);
  }
  return out;
}

/// ServingEngine::submit and poll per request on a VirtualClock, replaying
/// the open loop's arrivals and models against a prewarmed engine.
double engine_submit_us(const Open& o, RunResult& r) {
  ios::serve::VirtualClock clock;
  ios::serve::ServingEngine engine(daemon_options().serving, &clock);
  engine.prewarm(kModels, 4);
  std::size_t batched = 0;
  const double t0 = now_us();
  for (std::size_t i = 0; i < o.models.size(); ++i) {
    const double arrival = o.due_us[i] - o.due_us[0];
    while (engine.next_deadline_us() <= arrival) {
      clock.advance_to(engine.next_deadline_us());
      for (const auto& b : engine.poll()) batched += b.members.size();
    }
    clock.advance_to(arrival);
    for (const auto& b : engine.submit(static_cast<std::int64_t>(i),
                                       o.models[i])) {
      batched += b.members.size();
    }
  }
  for (const auto& b : engine.drain()) batched += b.members.size();
  const double t1 = now_us();
  if (batched != o.models.size()) {
    r.fail("engine replay batched " + std::to_string(batched) + " of " +
           std::to_string(o.models.size()) + " requests");
  }
  return (t1 - t0) / static_cast<double>(o.models.size());
}

/// parse_request plus format_response per open-loop line.
double protocol_us(const Open& o, std::int64_t first_id, RunResult& r) {
  const std::size_t n = std::min(o.lines.size(), kProtocolSample);
  std::size_t bytes = 0;
  const double t0 = now_us();
  for (std::size_t i = 0; i < n; ++i) {
    const std::string_view line(o.lines[i].data(), o.lines[i].size() - 1);
    const ios::net::WireRequest q = ios::net::parse_request(line);
    bytes += ios::net::format_response(o.responses[i]).size();
    if (q.id != first_id + static_cast<std::int64_t>(i)) {
      r.fail("protocol round trip changed a request id");
    }
  }
  const double t1 = now_us();
  if (bytes == 0) r.fail("format_response produced nothing");
  return (t1 - t0) / static_cast<double>(n);
}

}  // namespace

void run_serve(const RunConfig& cfg, Tracer& tracer, RunResult& r) {
  ios::Rng rng(cfg.seed);
  Mix mix(rng);
  std::int64_t next_id = 0;

  // Set-up, kSetupReps times: start a daemon (bind + prewarm), connect, and
  // push warm-up requests through. The last daemon is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<ios::net::Daemon> daemon;
  std::optional<Socket> sock;
  std::int64_t client_ok = 0;  // ok answers the measured daemon wrote
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sock.reset();
    daemon.reset();
    const double a = now_us();
    daemon = std::make_unique<ios::net::Daemon>(daemon_options());
    daemon->start();
    sock.emplace(Socket::connect_to("127.0.0.1", daemon->port()));
    const double b = now_us();
    Closed warmup = closed_loop(*sock, mix, next_id, 16, kInf,
                                kWarmupRequests);
    const double c = now_us();
    setup_s.push_back((c - a) / 1e6);
    // Peak RSS of a fresh process that has done the set-up once.
    if (rep == 0) r.end_to_end["peak_rss_mb"] = peak_rss_mb();
    tracer.record("setup.daemon_start", a, b, -1, rep);
    tracer.record("setup.warmup", b, c, -1, rep);
    next_id += static_cast<std::int64_t>(warmup.models.size());
    client_ok = warmup.ok;
    for (const auto& p : warmup.problems) r.fail("warm-up: " + p);
    if (warmup.ok != kWarmupRequests) r.fail("warm-up requests failed");
  }
  r.end_to_end["setup_s"] = median(setup_s);

  const ios::net::DaemonStats stats0 = daemon->stats();
  const ios::serve::RecipeCacheStats cache0 = daemon->cache().stats();
  const ios::serve::EngineCounters engine0 = daemon->engine_counters();

  // Phase A. A traced run spends the first half of it untraced and the
  // second half traced.
  const double share = cfg.trace ? 0.5 : 0.6;
  const double open_seconds = cfg.seconds * share / (cfg.trace ? 2 : 1);
  Tracer untraced(false);
  std::vector<Open> opens;
  for (Tracer* t : {&untraced, &tracer}) {
    if (t == &untraced && !cfg.trace) continue;
    opens.push_back(open_loop(*sock, mix, rng, next_id, open_seconds, *t));
    next_id += static_cast<std::int64_t>(opens.back().models.size());
    for (const auto& p : opens.back().problems) r.fail("open loop: " + p);
  }
  const Open& open = opens.back();
  const std::int64_t open_first = next_id - static_cast<std::int64_t>(
                                                open.models.size());

  // Phase B.
  const double b_start = now_us();
  Closed closed = closed_loop(*sock, mix, next_id, kWindow,
                              b_start + cfg.seconds * share / 2 * 1e6,
                              static_cast<std::size_t>(-1));
  const double b_end = now_us();
  for (const auto& p : closed.problems) r.fail("closed loop: " + p);
  client_ok += closed.ok;
  for (const Open& o : opens) client_ok += o.ok;

  const ios::net::DaemonStats stats1 = daemon->stats();
  const ios::serve::RecipeCacheStats cache1 = daemon->cache().stats();
  const std::int64_t lookups = (cache1.hits + cache1.misses) -
                               (cache0.hits + cache0.misses);
  const double hit_ratio =
      lookups > 0
          ? static_cast<double>(cache1.hits - cache0.hits) /
                static_cast<double>(lookups)
          : 0;
  if (hit_ratio != 1.0) r.fail("serving missed the recipe cache");
  if (daemon->engine_counters().optimizations != engine0.optimizations) {
    r.fail("the search ran while serving");
  }

  // The schedules being served: the batch-1 recipes, gated like the
  // optimize workloads' schedules.
  const ios::serve::ServerOptions& served = daemon->serving_options();
  double sim_us = 0, sequential_us = 0;
  for (const std::string& m : kModels) {
    bool computed = false;
    const ios::serve::CachedRecipe recipe = daemon->cache().get_or_compute(
        ios::serve::serving_cache_key(m, served.device, 1, served.scheduler,
                                      served.protocol),
        [] { return ios::serve::CachedRecipe{}; }, &computed);
    if (computed) {
      r.fail(m + ": batch-1 recipe was not prewarmed");
      continue;
    }
    const ios::Graph g = ios::models::build_model(m, 1);
    const Baselines base = eval_baselines(g);
    const std::string err =
        check_schedule(g, recipe.schedule, recipe.latency_us, base);
    if (!err.empty()) r.fail("served " + err);
    const std::string st =
        self_test_schedule(g, recipe.schedule, recipe.latency_us, base);
    if (!st.empty()) r.fail(st);
    sim_us += recipe.latency_us;
    sequential_us += base.sequential_us;
  }
  const std::string st =
      self_test_answers(open.models, open_first, open.answers, kBatchSizes);
  if (!st.empty()) r.fail(st);

  sock.reset();
  daemon->stop();
  const ios::net::DaemonStats stats2 = daemon->stats();
  if (stats2.admitted != stats2.completed || stats2.shed != 0) {
    r.fail("after drain the daemon admitted " +
           std::to_string(stats2.admitted) + " but completed " +
           std::to_string(stats2.completed));
  }
  if (stats2.completed != client_ok) {
    r.fail("the daemon completed " + std::to_string(stats2.completed) +
           " requests, the client got " + std::to_string(client_ok));
  }

  // End-to-end metrics over the whole phase. A failed or unanswered
  // request is infinitely slow.
  const std::size_t n = open.models.size();
  std::vector<double> latency = latencies(open), client, wall, wire, queue,
                      lateness;
  for (std::size_t i = 0; i < n; ++i) {
    const bool ok = std::isfinite(latency[i]);
    lateness.push_back(open.send_us[i] - open.due_us[i]);
    if (!ok) continue;
    const double client_us = open.recv_us[i] - open.send_us[i];
    client.push_back(client_us);
    wall.push_back(open.responses[i].wall_latency_us);
    wire.push_back(client_us - open.responses[i].wall_latency_us);
    queue.push_back(open.responses[i].queue_us);
  }
  std::int64_t open_sent = 0, open_failed = 0;
  for (const Open& o : opens) {
    open_sent += static_cast<std::int64_t>(o.models.size());
    open_failed += static_cast<std::int64_t>(o.models.size()) - o.ok;
  }
  const std::int64_t closed_sent =
      static_cast<std::int64_t>(closed.models.size());
  const std::int64_t closed_failed = closed_sent - closed.ok;
  r.attempted = open_sent + closed_sent;
  r.failed = open_failed + closed_failed;
  const double rps = closed.rate_per_s();
  const double p50_us = percentile(latency, 50);
  const double p90_us = percentile(latency, 90);
  r.end_to_end["latency_p50_ms"] = p50_us / 1000.0;
  r.end_to_end["throughput_per_s"] = rps;
  r.end_to_end["schedule_speedup"] = sim_us > 0 ? sequential_us / sim_us : 0;
  note("phase A (open, %.0f req/s): %lld sent, %lld failed; p50 %.1f us, "
       "p90 %.1f us, p99 %.1f us; generator p99 lateness %.1f us",
       kRatePerS, static_cast<long long>(open_sent),
       static_cast<long long>(open_failed), p50_us, p90_us,
       percentile(latency, 99), percentile(lateness, 99));
  note("phase B (closed, window %d): %lld sent, %lld failed, %.0f req/s",
       kWindow, static_cast<long long>(closed_sent),
       static_cast<long long>(closed_failed), rps);
  if (!cfg.trace) return;

  tracer.record("phase.closed", b_start, b_end);

  const std::int64_t batches = stats1.batches - stats0.batches;
  const std::int64_t completed = stats1.completed - stats0.completed;
  r.per_layer["op.latency_p90_ms"] = p90_us / 1000.0;
  r.per_layer["net.client_us"] = percentile(client, 50);
  r.per_layer["net.client_p99_us"] = percentile(client, 99);
  r.per_layer["net.daemon_wall_us"] = percentile(wall, 50);
  r.per_layer["net.wire_us"] = percentile(wire, 50);
  r.per_layer["serve.queue_us"] = percentile(queue, 50);
  r.per_layer["serve.batches"] = static_cast<double>(batches);
  r.per_layer["serve.batch_size_mean"] =
      batches > 0 ? static_cast<double>(completed) / batches : 0;
  r.per_layer["serve.recipe_hit_ratio"] = hit_ratio;
  r.per_layer["gen.lateness_us"] = percentile(lateness, 99);
  r.per_layer["gen.open_attempted"] = static_cast<double>(n);
  r.per_layer["gen.open_failed"] = static_cast<double>(open_failed);
  r.per_layer["gen.closed_attempted"] = static_cast<double>(closed_sent);
  r.per_layer["gen.closed_failed"] = static_cast<double>(closed_failed);
  const double untraced_p50 = percentile(latencies(opens.front()), 50);
  r.per_layer["trace.overhead_pct"] =
      untraced_p50 > 0 ? (p50_us - untraced_p50) / untraced_p50 * 100.0 : 0;
  r.per_layer["net.protocol_us"] = protocol_us(open, open_first, r);
  r.per_layer["serve.engine_submit_us"] = engine_submit_us(open, r);
}

}  // namespace iosbench
