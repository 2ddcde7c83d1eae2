#include "net/daemon.hpp"

#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <utility>

#include "models/models.hpp"
#include "place/pool.hpp"
#include "util/names.hpp"

namespace ios::net {

namespace {

// serve_forever's signal plumbing: the handler may only touch
// async-signal-safe state, so it records the signal number and pokes the
// daemon's signal pipe.
std::atomic<int> g_signal_fd{-1};
std::atomic<int> g_signal{0};

void handle_shutdown_signal(int sig) {
  g_signal.store(sig);
  const int fd = g_signal_fd.load();
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

void make_pipe(int fds[2], const char* what) {
  if (::pipe(fds) != 0) {
    throw std::runtime_error(std::string("pipe (") + what + ") failed");
  }
}

// A config integer in [lo, hi], checked before any narrowing cast can wrap
// it: the bounds the matching ios_opt daemon flags enforce.
std::int64_t config_int(const std::string& key, const JsonValue& value,
                        std::int64_t lo,
                        std::int64_t hi = std::numeric_limits<int>::max()) {
  const std::int64_t v = value.as_int();
  if (v < lo || v > hi) {
    throw std::runtime_error("daemon config: " + key + " must be in [" +
                             std::to_string(lo) + ", " + std::to_string(hi) +
                             "], got " + std::to_string(v));
  }
  return v;
}

void close_pipe(int fds[2]) {
  for (int i = 0; i < 2; ++i) {
    if (fds[i] >= 0) {
      ::close(fds[i]);
      fds[i] = -1;
    }
  }
}

}  // namespace

DaemonOptions daemon_options_from_json(const JsonValue& config) {
  if (!config.is_object()) {
    throw std::runtime_error("daemon config must be a JSON object");
  }
  DaemonOptions options;
  for (const auto& [key, value] : config.as_object()) {
    if (key == "port") {
      options.port = static_cast<int>(config_int(key, value, 0, 65535));
    } else if (key == "device") {
      options.serving.device = value.as_string();
    } else if (key == "devices") {
      options.serving.pool = pool_from_spec(value.as_string());
    } else if (key == "workers") {
      options.serving.num_workers = static_cast<int>(config_int(key, value, 1));
    } else if (key == "batch_sizes") {
      options.serving.batching.batch_sizes.clear();
      for (const JsonValue& b : value.as_array()) {
        options.serving.batching.batch_sizes.push_back(
            static_cast<int>(b.as_int()));
      }
    } else if (key == "max_queue_delay_us") {
      options.serving.batching.max_queue_delay_us = value.as_number();
    } else if (key == "shards") {
      options.serving.cache.num_shards =
          static_cast<std::size_t>(config_int(key, value, 1));
    } else if (key == "capacity") {
      options.serving.cache.shard_capacity =
          static_cast<std::size_t>(config_int(key, value, 1));
    } else if (key == "profile_db") {
      options.serving.profile_db = value.as_string();
    } else if (key == "prewarm") {
      for (const JsonValue& m : value.as_array()) {
        options.prewarm_models.push_back(m.as_string());
      }
    } else if (key == "prewarm_threads") {
      options.prewarm_threads = static_cast<int>(value.as_int());
    } else if (key == "max_pending") {
      options.max_pending = static_cast<std::size_t>(config_int(key, value, 1));
    } else if (key == "time_scale") {
      options.time_scale = value.as_number();
      if (!(options.time_scale >= 0)) {
        throw std::runtime_error("daemon config: time_scale must be >= 0");
      }
    } else if (key == "io_threads") {
      options.io_threads = static_cast<int>(config_int(key, value, 1));
    } else if (key == "slo") {
      // Per-model SLO classes: "model": 2500 (SLO only) or
      // "model": {"slo_us": 2500, "priority": 2}.
      for (const auto& [model, cls] : value.as_object()) {
        serve::SloClass slo;
        if (cls.is_object()) {
          for (const auto& [k, v] : cls.as_object()) {
            if (k == "slo_us") {
              slo.slo_us = v.as_number();
            } else if (k == "priority") {
              slo.priority = static_cast<int>(v.as_int());
            } else {
              throw std::runtime_error(
                  "daemon config: unknown slo key '" + k +
                  "' for model '" + model + "'; known keys: slo_us priority");
            }
          }
        } else {
          slo.slo_us = cls.as_number();
        }
        options.serving.slo.models[model] = slo;
      }
    } else if (key == "default_slo_us") {
      options.serving.slo.fallback.slo_us = value.as_number();
    } else if (key == "default_priority") {
      options.serving.slo.fallback.priority = static_cast<int>(value.as_int());
    } else if (key == "shed") {
      options.serving.slo.shed = value.as_bool();
    } else if (key == "shed_slack") {
      options.serving.slo.shed_slack_factor = value.as_number();
    } else if (key == "starvation_limit_us") {
      options.serving.slo.starvation_limit_us = value.as_number();
    } else if (key == "adaptive") {
      options.serving.adaptive.enabled = value.as_bool();
    } else if (key == "idle_timeout_us") {
      options.idle_timeout_us = value.as_number();
    } else if (key == "write_timeout_us") {
      options.write_timeout_us = value.as_number();
    } else if (key == "max_line_bytes") {
      // 0 means unlimited.
      options.max_line_bytes = static_cast<std::size_t>(config_int(
          key, value, 0, std::numeric_limits<std::int64_t>::max()));
    } else if (key == "chaos") {
      options.chaos = value.as_bool();
    } else if (key == "stuck_grace_us") {
      options.stuck_grace_us = value.as_number();
    } else if (key == "watchdog_interval_us") {
      options.watchdog_interval_us = value.as_number();
    } else if (key == "fault") {
      for (const auto& [k, v] : value.as_object()) {
        if (k == "seed") {
          options.fault.seed = static_cast<std::uint64_t>(v.as_int());
        } else if (k == "torn_write_prob") {
          options.fault.torn_write_prob = v.as_number();
        } else if (k == "stall_prob") {
          options.fault.stall_prob = v.as_number();
        } else if (k == "stall_us") {
          options.fault.stall_us = v.as_number();
        } else if (k == "disconnect_prob") {
          options.fault.disconnect_prob = v.as_number();
        } else {
          throw std::runtime_error(
              "daemon config: unknown fault key '" + k +
              "'; known keys: seed torn_write_prob stall_prob stall_us "
              "disconnect_prob");
        }
      }
    } else {
      throw std::runtime_error(
          "daemon config: unknown key '" + key +
          "'; known keys: port device devices workers batch_sizes "
          "max_queue_delay_us shards capacity profile_db prewarm "
          "prewarm_threads max_pending time_scale io_threads slo "
          "default_slo_us default_priority shed shed_slack "
          "starvation_limit_us adaptive idle_timeout_us write_timeout_us "
          "max_line_bytes chaos stuck_grace_us watchdog_interval_us fault");
    }
  }
  return options;
}

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)), engine_(options_.serving, &clock_) {
  if (engine_.options().adaptive.enabled) {
    adaptive_ = std::make_unique<serve::AdaptiveController>(
        engine_.options().adaptive, engine_);
  }
  const std::vector<std::string> models = models::model_names();
  known_models_.insert(models.begin(), models.end());
  if (options_.fault.any()) {
    fault_ = std::make_unique<FaultInjector>(options_.fault);
  }
}

Daemon::~Daemon() { stop(); }

void Daemon::start() {
  if (started_) throw std::logic_error("Daemon::start: already started");
  started_ = true;

  listener_.emplace(options_.port);
  make_pipe(wake_pipe_, "accept wake");
  make_pipe(sig_pipe_, "signal wake");

  if (!options_.prewarm_models.empty()) {
    engine_.prewarm(options_.prewarm_models, options_.prewarm_threads);
  }

  exec_queues_.resize(engine_.worker_busy().size());
  inflight_.resize(exec_queues_.size());
  exec_dead_.assign(exec_queues_.size(), 0);
  exec_stall_us_.assign(exec_queues_.size(), 0.0);
  running_.store(true);

  accept_thread_ = std::thread(&Daemon::accept_loop, this);
  batcher_thread_ = std::thread(&Daemon::batcher_loop, this);
  if (options_.stuck_grace_us > 0) {
    watchdog_thread_ = std::thread(&Daemon::watchdog_loop, this);
  }
  const int io = std::max(1, options_.io_threads);
  io_threads_.reserve(static_cast<std::size_t>(io));
  for (int i = 0; i < io; ++i) {
    io_threads_.emplace_back(&Daemon::io_loop, this);
  }
  exec_threads_.reserve(exec_queues_.size());
  for (std::size_t w = 0; w < exec_queues_.size(); ++w) {
    exec_threads_.emplace_back(&Daemon::executor_loop, this,
                               static_cast<int>(w));
  }
}

int Daemon::port() const {
  if (!listener_) throw std::logic_error("Daemon::port: not started");
  return listener_->port();
}

void Daemon::stop() {
  {
    std::lock_guard<std::mutex> guard(stop_mu_);
    if (!started_ || stopped_) return;
    stopped_ = true;
  }
  stopping_.store(true);

  // 1. Stop accepting: wake the accept loop, close the listener.
  {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.reset();

  // 2. Stop reading: drop never-served connections, EOF the live readers,
  //    and join the io pool — after this no new request can be admitted.
  {
    std::lock_guard<std::mutex> guard(conn_mu_);
    accepted_.clear();
    for (auto& weak : live_) {
      if (auto conn = weak.lock()) conn->sock.shutdown_read();
    }
  }
  conn_cv_.notify_all();
  for (auto& t : io_threads_) {
    if (t.joinable()) t.join();
  }

  // 3. Flush: every queued request leaves the engine in a batch now
  //    (drain never sheds, but poll-time sheds may still be unanswered).
  std::vector<serve::EngineBatch> formed;
  std::vector<serve::ShedRecord> sheds;
  {
    std::lock_guard<std::mutex> guard(engine_mu_);
    formed = engine_.drain();
    sheds = engine_.take_shed();
  }
  dispatch(std::move(formed));
  answer_shed(std::move(sheds));
  engine_cv_.notify_all();
  if (batcher_thread_.joinable()) batcher_thread_.join();

  // 4. Wait until every admitted request has been answered. The watchdog
  //    stays alive through this wait: a worker wedged mid-batch would
  //    otherwise hold the drain hostage; the watchdog kills it and the
  //    requeued members complete on the survivors.
  {
    std::unique_lock<std::mutex> lock(engine_mu_);
    drain_cv_.wait(lock, [this] { return pending_.empty(); });
  }
  {
    std::lock_guard<std::mutex> guard(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_thread_.joinable()) watchdog_thread_.join();

  // 5. Park the executors and tear down.
  {
    std::lock_guard<std::mutex> guard(exec_mu_);
    exec_stop_ = true;
  }
  exec_cv_.notify_all();
  for (auto& t : exec_threads_) {
    if (t.joinable()) t.join();
  }

  close_pipe(wake_pipe_);
  close_pipe(sig_pipe_);
  running_.store(false);
}

int Daemon::serve_forever() {
  if (!running_.load()) {
    throw std::logic_error("Daemon::serve_forever: call start() first");
  }
  g_signal.store(0);
  g_signal_fd.store(sig_pipe_[1]);

  struct sigaction action {};
  action.sa_handler = handle_shutdown_signal;
  sigemptyset(&action.sa_mask);
  struct sigaction old_term {}, old_int {};
  ::sigaction(SIGTERM, &action, &old_term);
  ::sigaction(SIGINT, &action, &old_int);

  char byte = 0;
  while (::read(sig_pipe_[0], &byte, 1) < 0 && errno == EINTR) {
  }

  ::sigaction(SIGTERM, &old_term, nullptr);
  ::sigaction(SIGINT, &old_int, nullptr);
  g_signal_fd.store(-1);

  stop();
  return g_signal.load();
}

DaemonStats Daemon::stats() const {
  DaemonStats stats;
  stats.connections = connections_.load();
  stats.admitted = admitted_.load();
  stats.completed = completed_.load();
  stats.rejected = rejected_.load();
  stats.protocol_errors = protocol_errors_.load();
  stats.batches = batches_.load();
  stats.shed = shed_.load();
  if (adaptive_) stats.replans = adaptive_->stats().replans;
  stats.idle_closes = idle_closes_.load();
  stats.slow_client_closes = slow_client_closes_.load();
  stats.oversized_lines = oversized_lines_.load();
  stats.worker_deaths = worker_deaths_.load();
  stats.requeued_requests = requeued_requests_.load();
  return stats;
}

void Daemon::accept_loop() {
  for (;;) {
    std::optional<Socket> accepted =
        listener_->accept_interruptible(wake_pipe_[0]);
    if (stopping_.load()) return;
    if (!accepted) continue;  // transient accept failure
    auto conn = std::make_shared<Connection>(std::move(*accepted));
    connections_.fetch_add(1);
    {
      std::lock_guard<std::mutex> guard(conn_mu_);
      live_.erase(std::remove_if(live_.begin(), live_.end(),
                                 [](const std::weak_ptr<Connection>& w) {
                                   return w.expired();
                                 }),
                  live_.end());
      live_.push_back(conn);
      accepted_.push_back(std::move(conn));
    }
    conn_cv_.notify_one();
  }
}

void Daemon::io_loop() {
  for (;;) {
    std::shared_ptr<Connection> conn;
    {
      std::unique_lock<std::mutex> lock(conn_mu_);
      conn_cv_.wait(lock, [this] {
        return stopping_.load() || !accepted_.empty();
      });
      if (accepted_.empty()) return;  // stopping
      conn = std::move(accepted_.front());
      accepted_.pop_front();
    }
    handle_connection(conn);
  }
}

void Daemon::handle_connection(const std::shared_ptr<Connection>& conn) {
  conn->sock.set_max_line_bytes(options_.max_line_bytes);
  if (options_.write_timeout_us > 0) {
    conn->sock.set_write_timeout_us(options_.write_timeout_us);
  }
  if (fault_) conn->sock.set_fault_injector(fault_.get());
  std::string line;
  try {
    for (;;) {
      const ReadStatus status =
          conn->sock.read_line_deadline(line, options_.idle_timeout_us);
      if (status == ReadStatus::kEof) return;
      if (status == ReadStatus::kTimeout) {
        // Idle client: reclaim the io thread. Responses already in flight
        // for this connection still complete; their writes fail quietly.
        idle_closes_.fetch_add(1);
        return;
      }
      if (line.empty()) continue;
      WireRequest request;
      try {
        request = parse_request(line);
      } catch (const std::exception& e) {
        protocol_errors_.fetch_add(1);
        write_response(conn, format_response(error_response(0, e.what())));
        continue;
      }
      handle_request(conn, request);
    }
  } catch (const SocketError& e) {
    if (e.kind() == SocketErrorKind::kOversizedLine) {
      // Bounded-line guard: answer with a protocol error, then close —
      // the stream position inside the oversized line is unknowable.
      oversized_lines_.fetch_add(1);
      protocol_errors_.fetch_add(1);
      write_response(conn, format_response(error_response(0, e.what())));
      // Absorb the rest of the oversized line briefly before closing;
      // closing with unread bytes queued sends RST, which would destroy
      // the error response before the client reads it.
      conn->sock.shutdown_write();
      conn->sock.discard_pending(100e3);
      return;
    }
    // Peer reset / IO error mid-line: pending responses for this
    // connection still complete; their writes fail quietly.
  } catch (const std::exception&) {
    // Same as above for non-socket failures.
  }
}

void Daemon::handle_request(const std::shared_ptr<Connection>& conn,
                            const WireRequest& request) {
  switch (request.kind) {
    case RequestKind::kPing: {
      JsonValue v = JsonValue::object();
      v.set("id", request.id);
      v.set("ok", true);
      v.set("pong", true);
      write_response(conn, v.dump());
      return;
    }
    case RequestKind::kStats:
      write_response(conn, stats_json(request.id));
      return;
    case RequestKind::kHealth:
      write_response(conn, health_json(request.id));
      return;
    case RequestKind::kKillWorker: {
      if (!options_.chaos) {
        protocol_errors_.fetch_add(1);
        write_response(conn, format_response(error_response(
                                 request.id,
                                 "chaos verbs are disabled; start the "
                                 "daemon with chaos enabled")));
        return;
      }
      std::string why;
      if (!kill_worker(request.worker, &why)) {
        write_response(conn,
                       format_response(error_response(request.id, why)));
        return;
      }
      JsonValue v = JsonValue::object();
      v.set("id", request.id);
      v.set("ok", true);
      v.set("killed", request.worker);
      write_response(conn, v.dump());
      return;
    }
    case RequestKind::kStallWorker: {
      if (!options_.chaos) {
        protocol_errors_.fetch_add(1);
        write_response(conn, format_response(error_response(
                                 request.id,
                                 "chaos verbs are disabled; start the "
                                 "daemon with chaos enabled")));
        return;
      }
      {
        std::lock_guard<std::mutex> guard(exec_mu_);
        if (request.worker < 0 ||
            static_cast<std::size_t>(request.worker) >=
                exec_stall_us_.size()) {
          write_response(conn, format_response(error_response(
                                   request.id, "worker index out of range")));
          return;
        }
        exec_stall_us_[static_cast<std::size_t>(request.worker)] =
            request.stall_us;
      }
      JsonValue v = JsonValue::object();
      v.set("id", request.id);
      v.set("ok", true);
      v.set("stalled", request.worker);
      v.set("stall_us", request.stall_us);
      write_response(conn, v.dump());
      return;
    }
    case RequestKind::kInfer:
      break;
  }

  // Validate the model before it reaches the engine: an unknown name must
  // be one failed request, not an exception inside a shared batch.
  if (known_models_.find(request.model) == known_models_.end()) {
    protocol_errors_.fetch_add(1);
    write_response(
        conn, format_response(error_response(
                  request.id, unknown_name_message("model", request.model,
                                                   models::model_names()))));
    return;
  }

  std::vector<serve::EngineBatch> formed;
  std::string refusal;
  {
    std::unique_lock<std::mutex> lock(engine_mu_);
    if (stopping_.load()) {
      refusal = "shutting down";
    } else if (pending_.size() >= options_.max_pending) {
      refusal = "overloaded";
    } else {
      const std::int64_t engine_id = next_engine_id_++;
      Pending pending;
      pending.conn = conn;
      pending.client_id = request.id;
      pending.wall_admitted_us = clock_.now_us();
      pending_.emplace(engine_id, std::move(pending));
      admitted_.fetch_add(1);
      try {
        formed = engine_.submit(engine_id, request.model);
      } catch (const std::exception& e) {
        pending_.erase(engine_id);
        admitted_.fetch_sub(1);
        refusal = e.what();
      }
    }
  }
  if (!refusal.empty()) {
    rejected_.fetch_add(1);
    write_response(conn,
                   format_response(error_response(request.id, refusal)));
    return;
  }
  // Feed the load detector outside engine_mu_: the controller has its own
  // lock and must never nest inside the engine's.
  if (adaptive_) adaptive_->observe_arrival(request.model, clock_.now_us());
  engine_cv_.notify_one();  // the next flush deadline may have changed
  dispatch(std::move(formed));
}

void Daemon::batcher_loop() {
  std::unique_lock<std::mutex> lock(engine_mu_);
  while (!stopping_.load()) {
    // Due re-plans run here, off the request path, with the engine lock
    // dropped: a re-plan only touches the shared recipe cache and profile
    // db, never live queues, so serving continues underneath it.
    if (adaptive_ && adaptive_->replan_due(clock_.now_us())) {
      lock.unlock();
      try {
        adaptive_->replan(clock_.now_us());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "ios daemon: replan error: %s\n", e.what());
      }
      lock.lock();
      continue;
    }
    const double deadline = engine_.next_deadline_us();
    if (deadline == std::numeric_limits<double>::infinity()) {
      engine_cv_.wait(lock);
      continue;
    }
    // +1us: time_point_at truncates, and waking a hair early would spin.
    engine_cv_.wait_until(
        lock, clock_.time_point_at(deadline) + std::chrono::microseconds(1));
    if (stopping_.load()) break;
    std::vector<serve::EngineBatch> formed;
    std::vector<serve::ShedRecord> sheds;
    try {
      formed = engine_.poll();
      sheds = engine_.take_shed();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ios daemon: batcher error: %s\n", e.what());
      continue;
    }
    if (!formed.empty() || !sheds.empty()) {
      lock.unlock();
      dispatch(std::move(formed));
      answer_shed(std::move(sheds));
      lock.lock();
    }
  }
}

void Daemon::dispatch(std::vector<serve::EngineBatch> formed) {
  if (formed.empty()) return;
  {
    std::lock_guard<std::mutex> guard(exec_mu_);
    for (serve::EngineBatch& batch : formed) {
      batches_.fetch_add(1);
      exec_queues_[static_cast<std::size_t>(batch.record.worker)].push_back(
          std::move(batch));
    }
  }
  exec_cv_.notify_all();
}

bool Daemon::kill_worker(int worker, std::string* error) {
  serve::KillResult killed;
  {
    std::lock_guard<std::mutex> guard(engine_mu_);
    try {
      if (engine_.worker_alive(worker) && engine_.alive_workers() <= 1) {
        if (error) *error = "cannot kill the last alive worker";
        return false;
      }
      killed = engine_.kill_worker(worker);  // throws on a bad or dead worker
    } catch (const std::exception& e) {
      if (error) *error = e.what();
      return false;
    }
    // During a drain the batcher is gone — nobody will flush a partial
    // requeued batch at its deadline, so force it out now.
    if (stopping_.load()) {
      for (serve::EngineBatch& b : engine_.drain()) {
        killed.batches.push_back(std::move(b));
      }
    }
  }
  requeued_requests_.fetch_add(
      static_cast<std::int64_t>(killed.record.requeued.size()));
  worker_deaths_.fetch_add(1);
  {
    std::lock_guard<std::mutex> guard(exec_mu_);
    exec_dead_[static_cast<std::size_t>(worker)] = 1;
  }
  exec_cv_.notify_all();    // cut the stolen in-flight batch's wait short
  engine_cv_.notify_one();  // the next flush deadline may have changed
  dispatch(std::move(killed.batches));
  return true;
}

void Daemon::watchdog_loop() {
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  for (;;) {
    watchdog_cv_.wait_for(
        lock,
        std::chrono::duration<double, std::micro>(
            options_.watchdog_interval_us),
        [this] { return watchdog_stop_; });
    if (watchdog_stop_) return;
    lock.unlock();
    std::vector<int> suspects;
    {
      const double now = clock_.now_us();
      std::lock_guard<std::mutex> guard(exec_mu_);
      for (std::size_t w = 0; w < inflight_.size(); ++w) {
        if (!exec_dead_[w] && inflight_[w].active &&
            now > inflight_[w].deadline_wall_us + options_.stuck_grace_us) {
          suspects.push_back(static_cast<int>(w));
        }
      }
    }
    for (const int w : suspects) {
      std::string why;
      if (kill_worker(w, &why)) {
        std::fprintf(stderr,
                     "ios daemon: watchdog killed stuck worker %d\n", w);
      } else {
        std::fprintf(stderr,
                     "ios daemon: watchdog could not kill worker %d: %s\n",
                     w, why.c_str());
      }
    }
    lock.lock();
  }
}

void Daemon::executor_loop(int worker) {
  const auto w = static_cast<std::size_t>(worker);
  for (;;) {
    serve::EngineBatch batch;
    {
      std::unique_lock<std::mutex> lock(exec_mu_);
      exec_cv_.wait(lock, [this, w] {
        return exec_stop_ || !exec_queues_[w].empty();
      });
      if (exec_queues_[w].empty()) return;  // exec_stop_ and drained
      batch = std::move(exec_queues_[w].front());
      exec_queues_[w].pop_front();

      // Occupy this worker for the schedule's latency: the simulated
      // device, made temporal (time_scale 0 in tests skips the sleep).
      // inflight_ exposes the batch's deadline to the watchdog; an injected
      // stall (stall_worker) wedges the executor past it. A kill wakes the
      // wait early: the engine has already stolen the batch.
      const double stall_us = std::exchange(exec_stall_us_[w], 0.0);
      const double service_wall_us =
          batch.record.service_us * std::max(0.0, options_.time_scale);
      inflight_[w].active = true;
      inflight_[w].deadline_wall_us = clock_.now_us() + service_wall_us;
      if (service_wall_us > 0 || stall_us > 0) {
        const auto wake = clock_.time_point_at(clock_.now_us() +
                                               service_wall_us + stall_us);
        exec_cv_.wait_until(lock, wake,
                            [this, w] { return exec_dead_[w] != 0; });
      }
      inflight_[w].active = false;
    }

    // Settle the batch under one engine_mu_ acquisition. retire() fails
    // when a kill stole the batch first: its members were requeued, and the
    // batch they landed in answers them.
    std::vector<Pending> answered(batch.members.size());
    {
      std::lock_guard<std::mutex> guard(engine_mu_);
      if (!engine_.retire(batch.record.id)) continue;
      for (std::size_t k = 0; k < batch.members.size(); ++k) {
        const auto it = pending_.find(batch.members[k].id);
        if (it == pending_.end()) continue;  // refused after formation: never
        answered[k] = std::move(it->second);
        pending_.erase(it);
      }
      if (pending_.empty()) drain_cv_.notify_all();
    }
    const double batch_slo =
        adaptive_ ? engine_.slo_for(batch.record.model).slo_us
                  : std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < batch.members.size(); ++k) {
      const serve::EngineRequest& member = batch.members[k];
      if (adaptive_) {
        adaptive_->observe_outcome(
            batch.record.model,
            batch.record.completion_us - member.arrival_us <= batch_slo);
      }
      const Pending& pending = answered[k];
      if (!pending.conn) continue;
      WireResponse response;
      response.id = pending.client_id;
      response.ok = true;
      response.model = batch.record.model;
      response.device = batch.record.device;
      response.batch_size = batch.record.size;
      response.worker = batch.record.worker;
      response.latency_us = batch.record.completion_us - member.arrival_us;
      response.queue_us = batch.record.start_us - member.arrival_us;
      response.service_us = batch.record.service_us;
      response.wall_latency_us = clock_.now_us() - pending.wall_admitted_us;
      write_response(pending.conn, format_response(response));
      completed_.fetch_add(1);
    }
  }
}

void Daemon::answer_shed(std::vector<serve::ShedRecord> sheds) {
  for (const serve::ShedRecord& record : sheds) {
    Pending pending;
    {
      std::lock_guard<std::mutex> guard(engine_mu_);
      auto it = pending_.find(record.id);
      if (it == pending_.end()) continue;
      pending = std::move(it->second);
      pending_.erase(it);
      if (pending_.empty()) drain_cv_.notify_all();
    }
    shed_.fetch_add(1);
    if (adaptive_) adaptive_->observe_outcome(record.model, false);
    write_response(pending.conn,
                   format_response(error_response(pending.client_id, "shed")));
  }
}

void Daemon::write_response(const std::shared_ptr<Connection>& conn,
                            const std::string& line) {
  std::lock_guard<std::mutex> guard(conn->write_mu);
  try {
    conn->sock.write_all(line);
    conn->sock.write_all("\n");
  } catch (const SocketError& e) {
    if (e.kind() == SocketErrorKind::kTimeout) {
      // Slow client: it stopped draining its receive window. Abandon the
      // connection — shutting down both sides wakes its blocked reader so
      // the io thread moves on.
      slow_client_closes_.fetch_add(1);
      conn->sock.shutdown_read();
      conn->sock.shutdown_write();
    }
    // Otherwise a dead peer (reset / injected drop): nothing useful to do
    // with the response.
  } catch (const std::exception&) {
    // Dead peer: nothing useful to do with the response.
  }
}

std::string Daemon::stats_json(std::int64_t id) const {
  JsonValue v = JsonValue::object();
  v.set("id", id);
  v.set("ok", true);
  v.set("connections", connections_.load());
  v.set("admitted", admitted_.load());
  v.set("completed", completed_.load());
  v.set("rejected", rejected_.load());
  v.set("protocol_errors", protocol_errors_.load());
  v.set("batches", batches_.load());
  v.set("shed", shed_.load());
  v.set("idle_closes", idle_closes_.load());
  v.set("slow_client_closes", slow_client_closes_.load());
  v.set("oversized_lines", oversized_lines_.load());
  v.set("worker_deaths", worker_deaths_.load());
  v.set("requeued_requests", requeued_requests_.load());
  if (adaptive_) {
    const serve::AdaptiveStats a = adaptive_->stats();
    v.set("replans", a.replans);
    v.set("shifts_detected", a.shifts_detected);
    v.set("attainment_ewma", a.attainment_ewma);
  }
  {
    std::lock_guard<std::mutex> guard(engine_mu_);
    v.set("pending", static_cast<std::int64_t>(pending_.size()));
    v.set("queued", static_cast<std::int64_t>(engine_.queued()));
  }
  const serve::EngineCounters counters = engine_.counters();
  v.set("optimizations", counters.optimizations);
  v.set("measurements", counters.measurements);
  const serve::RecipeCacheStats cache = engine_.cache().stats();
  v.set("cache_hits", cache.hits);
  v.set("cache_misses", cache.misses);
  v.set("cache_size", static_cast<std::int64_t>(cache.size));
  return v.dump();
}

std::string Daemon::health_json(std::int64_t id) const {
  JsonValue v = JsonValue::object();
  v.set("id", id);
  v.set("ok", true);
  {
    std::lock_guard<std::mutex> guard(engine_mu_);
    v.set("workers", static_cast<std::int64_t>(exec_queues_.size()));
    v.set("alive", engine_.alive_workers());
    JsonValue dead = JsonValue::array();
    for (std::size_t w = 0; w < exec_queues_.size(); ++w) {
      if (!engine_.worker_alive(static_cast<int>(w))) {
        dead.push_back(static_cast<std::int64_t>(w));
      }
    }
    v.set("dead_workers", std::move(dead));
    JsonValue depths = JsonValue::object();
    for (const auto& [model, depth] : engine_.queue_depths()) {
      depths.set(model, static_cast<std::int64_t>(depth));
    }
    v.set("queue_depths", std::move(depths));
    v.set("pending", static_cast<std::int64_t>(pending_.size()));
    v.set("queued", static_cast<std::int64_t>(engine_.queued()));
  }
  v.set("admitted", admitted_.load());
  v.set("completed", completed_.load());
  v.set("rejected", rejected_.load());
  v.set("shed", shed_.load());
  v.set("protocol_errors", protocol_errors_.load());
  v.set("idle_closes", idle_closes_.load());
  v.set("slow_client_closes", slow_client_closes_.load());
  v.set("oversized_lines", oversized_lines_.load());
  v.set("worker_deaths", worker_deaths_.load());
  v.set("requeued_requests", requeued_requests_.load());
  if (fault_) {
    const FaultCounters fc = fault_->counters();
    JsonValue f = JsonValue::object();
    f.set("torn_writes", fc.torn_writes);
    f.set("stalls", fc.stalls);
    f.set("disconnects", fc.disconnects);
    v.set("injected_faults", std::move(f));
  }
  return v.dump();
}

}  // namespace ios::net
