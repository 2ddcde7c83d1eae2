#pragma once
// ios::net::Daemon — the wall-clock network front end over the same
// ServingEngine the deterministic DES Server drives (serve/engine.hpp).
// One engine, two drivers: the DES is the test harness, this is the
// production data path. The daemon owns
//
//   * a listening TCP socket (127.0.0.1, ephemeral port supported) with one
//     accept thread and a small pool of connection-handler threads reading
//     newline-delimited JSON requests (net/protocol.hpp);
//   * bounded admission: at most max_pending requests may be in flight
//     (queued or executing); excess requests are answered with an
//     {"ok":false,"error":"overloaded"} line instead of being buffered
//     without bound — backpressure the client can see;
//   * a batcher thread that sleeps until the engine's next flush deadline
//     and polls it, so wall-clock time drives exactly the deadline flushes
//     the DES simulates;
//   * one executor thread per engine worker, replaying each routed batch
//     (optionally occupying wall time for its service latency — the
//     simulated device, made temporal) and writing responses;
//   * graceful drain: stop() (or SIGTERM via serve_forever) stops
//     accepting, flushes every queue through the engine, lets in-flight
//     batches finish, answers every admitted request, then joins all
//     threads. Recipes and the profiling database are already persisted by
//     the Optimizer as misses resolve, so a drained daemon leaves a warm
//     start behind.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/fault.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "serve/adaptive.hpp"
#include "serve/engine.hpp"
#include "util/json.hpp"

namespace ios::net {

/// Daemon configuration: the shared engine options plus network knobs.
struct DaemonOptions {
  /// Port to bind on 127.0.0.1 (0 = kernel-assigned; read back via
  /// Daemon::port()).
  int port = 0;
  /// The batching/routing engine configuration — identical semantics to the
  /// DES Server (device/pool, batch sizes, deadline, cache, profile db).
  serve::ServerOptions serving{};
  /// Models to optimize into the recipe cache before accepting traffic.
  std::vector<std::string> prewarm_models;
  /// Host threads for prewarming (<= 0 = one per hardware thread).
  int prewarm_threads = 0;
  /// Admission bound: max requests in flight (queued + executing) before
  /// new inference requests are refused with "overloaded".
  std::size_t max_pending = 1024;
  /// Service-time emulation: each batch occupies its executor thread for
  /// service_us * time_scale wall microseconds (1.0 = the simulated device
  /// in real time; 0 = complete instantly, useful in tests).
  double time_scale = 1.0;
  /// Connection-handler threads; also the max concurrent connections.
  int io_threads = 4;
  /// Close a connection that sends nothing for this long (wall
  /// microseconds; 0 = never). Counted in DaemonStats::idle_closes.
  double idle_timeout_us = 0;
  /// Slow-client guard: a response write that cannot complete within this
  /// budget (the peer stopped draining its receive window) abandons the
  /// connection (wall microseconds; 0 = never). Counted in
  /// DaemonStats::slow_client_closes.
  double write_timeout_us = 0;
  /// Bound on one request line (bytes, excluding the newline; 0 =
  /// unlimited). An oversized line gets a protocol-error response and a
  /// close, never an unbounded buffer.
  std::size_t max_line_bytes = 64 * 1024;
  /// Enables the chaos protocol verbs kill_worker / stall_worker. Off by
  /// default: a production daemon must not let a client kill workers.
  bool chaos = false;
  /// Executor watchdog: a worker whose in-flight batch overruns its
  /// expected wall service time by more than this is declared dead — the
  /// engine routes around it and the batch's members are requeued (0 =
  /// watchdog disabled).
  double stuck_grace_us = 0;
  /// Watchdog poll period (wall microseconds).
  double watchdog_interval_us = 20000;
  /// Daemon-side fault injection applied to every accepted connection
  /// (torn/stalled/dropped response writes, stalled reads). All-zero =
  /// off; chaos testing only.
  FaultSpec fault{};
};

/// Parses a daemon config file (JSON object) into options. Recognized keys:
/// port, device, devices (pool spec string), workers, batch_sizes (array),
/// max_queue_delay_us, shards, capacity, profile_db, prewarm (array of
/// model names), prewarm_threads, max_pending, time_scale, io_threads,
/// slo (object: model name -> SLO in us, or -> {"slo_us": n,
/// "priority": p}), default_slo_us, default_priority, shed (bool),
/// shed_slack, starvation_limit_us, adaptive (bool), idle_timeout_us,
/// write_timeout_us, max_line_bytes, chaos (bool), stuck_grace_us,
/// watchdog_interval_us, fault (object: seed, torn_write_prob, stall_prob,
/// stall_us, disconnect_prob). Unknown keys throw std::runtime_error (a
/// typo'd config should not silently serve defaults), and so do values the
/// matching ios_opt daemon flags reject: port outside [0, 65535]; workers,
/// shards, capacity, max_pending or io_threads below 1; time_scale or
/// max_line_bytes below 0.
DaemonOptions daemon_options_from_json(const JsonValue& config);

/// Lifetime counters of a daemon.
struct DaemonStats {
  std::int64_t connections = 0;      ///< accepted TCP connections
  std::int64_t admitted = 0;         ///< inference requests admitted
  std::int64_t completed = 0;        ///< inference responses written
  std::int64_t rejected = 0;         ///< refused by the admission bound
  std::int64_t protocol_errors = 0;  ///< malformed / unknown-model requests
  std::int64_t batches = 0;          ///< batches dispatched to executors
  /// Admitted requests the shed policy rejected (answered
  /// {"ok":false,"error":"shed"}). admitted == completed + shed after a
  /// clean drain.
  std::int64_t shed = 0;
  std::int64_t replans = 0;          ///< adaptive-controller re-plans
  std::int64_t idle_closes = 0;      ///< connections closed by idle timeout
  std::int64_t slow_client_closes = 0;  ///< writes abandoned by the timeout
  std::int64_t oversized_lines = 0;  ///< request lines over max_line_bytes
  std::int64_t worker_deaths = 0;    ///< workers killed (verb or watchdog)
  /// In-flight / queued batch members resubmitted after a worker death.
  /// They keep their pending entry, so a requeued request is answered
  /// exactly once — never lost, never double-counted.
  std::int64_t requeued_requests = 0;
};

/// The long-running serving daemon (see the file comment). start() binds
/// and spawns the thread fleet; stop() drains gracefully; serve_forever()
/// parks the calling thread until SIGTERM/SIGINT.
class Daemon {
 public:
  /// Builds the engine (normalizing options) but does not bind or spawn
  /// anything — call start().
  explicit Daemon(DaemonOptions options);
  /// Drains via stop() if still running.
  ~Daemon();
  Daemon(const Daemon&) = delete;             ///< not copyable (owns threads)
  Daemon& operator=(const Daemon&) = delete;  ///< not copyable (owns threads)

  /// Binds 127.0.0.1:port, prewarms, and spawns the accept/io/batcher/
  /// executor threads. Throws std::runtime_error on bind failure; throws
  /// std::logic_error if already started.
  void start();

  /// The bound port (valid after start()).
  int port() const;

  /// Graceful drain: stop accepting, flush the engine's queues, finish
  /// in-flight batches, answer every admitted request, join all threads.
  /// Idempotent; also invoked by the destructor.
  void stop();

  /// True between start() and the end of stop().
  bool running() const { return running_.load(); }

  /// Installs SIGTERM/SIGINT handlers, parks until one arrives, then
  /// drains via stop(). Returns the signal number. Call from the main
  /// thread after start().
  int serve_forever();

  /// Lifetime counters.
  DaemonStats stats() const;

  /// Kills `worker` through ServingEngine::kill_worker under the engine
  /// lock — the same recovery the DES Server replays: the router stops
  /// considering the worker, its in-flight and queued batches are stolen,
  /// and their members are resubmitted and dispatched to the survivors, so
  /// every admitted request is still answered exactly once. Refuses
  /// (returns false, fills *error) for a bad index, an already-dead worker,
  /// or the last alive worker. Called by the chaos verb and the watchdog;
  /// safe from any thread.
  bool kill_worker(int worker, std::string* error);

  /// The engine options the daemon actually runs with (normalized).
  const serve::ServerOptions& serving_options() const {
    return engine_.options();
  }

  /// Engine-level optimizer accounting and the recipe cache.
  serve::EngineCounters engine_counters() const { return engine_.counters(); }
  serve::ShardedRecipeCache& cache() { return engine_.cache(); }

 private:
  /// One live client connection: the socket plus a write lock so executor
  /// threads interleave whole response lines, never bytes.
  struct Connection {
    explicit Connection(Socket s) : sock(std::move(s)) {}
    Socket sock;
    std::mutex write_mu;
  };

  /// An admitted request waiting for its batch to complete.
  struct Pending {
    std::shared_ptr<Connection> conn;
    std::int64_t client_id = 0;
    double wall_admitted_us = 0;
  };

  void accept_loop();
  void io_loop();
  void batcher_loop();
  void executor_loop(int worker);
  void watchdog_loop();

  /// Serves one connection until EOF or shutdown.
  void handle_connection(const std::shared_ptr<Connection>& conn);

  /// Handles one parsed request line on `conn`.
  void handle_request(const std::shared_ptr<Connection>& conn,
                      const WireRequest& request);

  /// Pushes formed batches onto their workers' executor queues. A batch
  /// routed to a worker that died before this dispatch was already stolen
  /// by the kill; its executor drops it when retire() fails.
  void dispatch(std::vector<serve::EngineBatch> formed);

  /// Answers shed requests with {"ok":false,"error":"shed"} and settles
  /// their pending entries. Takes engine_mu_ per record; call unlocked.
  void answer_shed(std::vector<serve::ShedRecord> sheds);

  /// Writes one response line (appending '\n'), swallowing write errors
  /// from a dead peer — the response has nowhere useful to go.
  void write_response(const std::shared_ptr<Connection>& conn,
                      const std::string& line);

  /// The stats JSON answered to a "stats" request.
  std::string stats_json(std::int64_t id) const;

  /// The health JSON answered to a "health" request: live workers, queue
  /// depths, and the fault/timeout counters.
  std::string health_json(std::int64_t id) const;

  DaemonOptions options_;
  serve::WallClock clock_;
  serve::ServingEngine engine_;
  /// Load-shift detector + re-planner (null unless
  /// serving.adaptive.enabled). io threads feed arrivals, executors feed
  /// SLO outcomes, the batcher runs due re-plans off the request path.
  std::unique_ptr<serve::AdaptiveController> adaptive_;
  std::set<std::string> known_models_;  ///< admission-time model validation

  std::optional<ListenSocket> listener_;
  int wake_pipe_[2] = {-1, -1};  ///< stop() -> accept loop
  int sig_pipe_[2] = {-1, -1};   ///< signal handler -> serve_forever

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::mutex stop_mu_;  ///< serializes stop() (dtor vs serve_forever)
  bool stopped_ = false;

  // Engine + admission state, one lock (the engine is externally
  // serialized by contract).
  mutable std::mutex engine_mu_;
  std::condition_variable engine_cv_;  ///< batcher wake: deadline changed
  std::condition_variable drain_cv_;   ///< stop() wake: pending emptied
  std::map<std::int64_t, Pending> pending_;
  std::int64_t next_engine_id_ = 0;

  // Accepted-connection handoff to the io pool.
  std::mutex conn_mu_;
  std::condition_variable conn_cv_;
  std::deque<std::shared_ptr<Connection>> accepted_;
  std::vector<std::weak_ptr<Connection>> live_;  ///< for shutdown_read

  // Executor queues, one per engine worker. The engine keeps every batch
  // outstanding until its executor retires it, so a kill (verb or
  // watchdog) steals and requeues a dead worker's in-flight and queued
  // batches inside the engine; exec_dead_ then wakes the executor out of
  // its emulated service time, and it drops each stolen batch when
  // retire() fails.
  std::mutex exec_mu_;
  std::condition_variable exec_cv_;
  std::vector<std::deque<serve::EngineBatch>> exec_queues_;
  bool exec_stop_ = false;

  /// A batch currently occupying its executor: the watchdog's view.
  struct InFlight {
    bool active = false;
    /// Wall time the batch should complete (start + service * time_scale,
    /// excluding injected stalls) — the watchdog's overdue baseline.
    double deadline_wall_us = 0;
  };
  std::vector<InFlight> inflight_;
  std::vector<char> exec_dead_;
  /// One-shot extra wall stall applied to the worker's next batch (the
  /// stall_worker chaos verb; consumed on batch start).
  std::vector<double> exec_stall_us_;

  /// Daemon-side fault injector shared by every accepted connection (null
  /// unless options.fault injects anything).
  std::unique_ptr<FaultInjector> fault_;

  // The watchdog outlives the early phases of stop() (it may have to
  // rescue a drain wedged behind a stuck worker), so it has its own stop
  // flag, set only after every pending request is answered.
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;

  std::thread accept_thread_;
  std::thread batcher_thread_;
  std::thread watchdog_thread_;
  std::vector<std::thread> io_threads_;
  std::vector<std::thread> exec_threads_;

  // Lifetime counters (atomics: bumped from io/executor threads, read from
  // stats() on any thread).
  std::atomic<std::int64_t> connections_{0};
  std::atomic<std::int64_t> admitted_{0};
  std::atomic<std::int64_t> completed_{0};
  std::atomic<std::int64_t> rejected_{0};
  std::atomic<std::int64_t> protocol_errors_{0};
  std::atomic<std::int64_t> batches_{0};
  std::atomic<std::int64_t> shed_{0};
  std::atomic<std::int64_t> idle_closes_{0};
  std::atomic<std::int64_t> slow_client_closes_{0};
  std::atomic<std::int64_t> oversized_lines_{0};
  std::atomic<std::int64_t> worker_deaths_{0};
  std::atomic<std::int64_t> requeued_requests_{0};
};

}  // namespace ios::net
