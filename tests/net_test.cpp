#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/daemon.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "util/json.hpp"

namespace ios {
namespace {

using namespace ios::net;

// ---- protocol ------------------------------------------------------------

TEST(Protocol, InferRequestRoundTrips) {
  WireRequest request;
  request.id = 42;
  request.kind = RequestKind::kInfer;
  request.model = "squeezenet";
  const WireRequest parsed = parse_request(format_request(request));
  EXPECT_EQ(parsed.id, 42);
  EXPECT_EQ(parsed.kind, RequestKind::kInfer);
  EXPECT_EQ(parsed.model, "squeezenet");
}

TEST(Protocol, PingAndStatsRoundTrip) {
  for (const RequestKind kind : {RequestKind::kPing, RequestKind::kStats}) {
    WireRequest request;
    request.id = 7;
    request.kind = kind;
    const WireRequest parsed = parse_request(format_request(request));
    EXPECT_EQ(parsed.id, 7);
    EXPECT_EQ(parsed.kind, kind);
  }
}

TEST(Protocol, BareModelLineIsAnInferRequest) {
  const WireRequest parsed = parse_request(R"({"id":3,"model":"fig3"})");
  EXPECT_EQ(parsed.kind, RequestKind::kInfer);
  EXPECT_EQ(parsed.model, "fig3");
}

TEST(Protocol, MalformedRequestsThrow) {
  EXPECT_THROW(parse_request("not json"), std::runtime_error);
  EXPECT_THROW(parse_request("[1,2,3]"), std::runtime_error);
  EXPECT_THROW(parse_request(R"({"id":1})"), std::runtime_error);  // no model
  EXPECT_THROW(parse_request(R"({"id":1,"cmd":"reboot"})"),
               std::runtime_error);
}

TEST(Protocol, ResponseRoundTripsIncludingErrors) {
  WireResponse ok;
  ok.id = 9;
  ok.ok = true;
  ok.model = "fig5";
  ok.device = "Tesla V100";
  ok.batch_size = 4;
  ok.worker = 1;
  ok.latency_us = 123.5;
  ok.queue_us = 50.25;
  ok.service_us = 73.25;
  ok.wall_latency_us = 4200.0;
  const WireResponse parsed = parse_response(format_response(ok));
  EXPECT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.id, 9);
  EXPECT_EQ(parsed.model, "fig5");
  EXPECT_EQ(parsed.device, "Tesla V100");
  EXPECT_EQ(parsed.batch_size, 4);
  EXPECT_EQ(parsed.worker, 1);
  EXPECT_EQ(parsed.latency_us, 123.5);
  EXPECT_EQ(parsed.queue_us, 50.25);
  EXPECT_EQ(parsed.service_us, 73.25);
  EXPECT_EQ(parsed.wall_latency_us, 4200.0);

  const WireResponse err =
      parse_response(format_response(error_response(3, "overloaded")));
  EXPECT_FALSE(err.ok);
  EXPECT_EQ(err.id, 3);
  EXPECT_EQ(err.error, "overloaded");
}

// ---- sockets -------------------------------------------------------------

TEST(SocketTest, LoopbackLinesRoundTripAcrossThreads) {
  ListenSocket listener(0);  // ephemeral port
  ASSERT_GT(listener.port(), 0);

  std::thread server([&listener] {
    std::optional<Socket> conn = listener.accept_interruptible(-1);
    ASSERT_TRUE(conn.has_value());
    std::string line;
    while (conn->read_line(line)) {
      conn->write_all("echo:" + line + "\n");
    }
  });

  Socket client = Socket::connect_to("127.0.0.1", listener.port());
  // Two lines in one write (the read side must split them) plus a separate
  // write; the trailing line is unterminated and must still arrive at EOF
  // on the server — but here the client terminates everything.
  client.write_all("alpha\nbeta\n");
  client.write_all("gamma\n");
  std::string line;
  ASSERT_TRUE(client.read_line(line));
  EXPECT_EQ(line, "echo:alpha");
  ASSERT_TRUE(client.read_line(line));
  EXPECT_EQ(line, "echo:beta");
  ASSERT_TRUE(client.read_line(line));
  EXPECT_EQ(line, "echo:gamma");
  client.shutdown_write();
  server.join();
}

TEST(SocketTest, AcceptInterruptibleWakesOnPipe) {
  ListenSocket listener(0);
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  std::atomic<bool> woke{false};
  std::thread acceptor([&] {
    const std::optional<Socket> conn =
        listener.accept_interruptible(pipe_fds[0]);
    EXPECT_FALSE(conn.has_value());
    woke.store(true);
  });
  const char byte = 1;
  ASSERT_EQ(::write(pipe_fds[1], &byte, 1), 1);
  acceptor.join();
  EXPECT_TRUE(woke.load());
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);
}

// ---- daemon config -------------------------------------------------------

TEST(DaemonConfig, ParsesEveryKnownKey) {
  const DaemonOptions options = daemon_options_from_json(JsonValue::parse(R"({
    "port": 7411,
    "devices": "v100x2,k80",
    "workers": 3,
    "batch_sizes": [1, 4, 8],
    "max_queue_delay_us": 750,
    "shards": 4,
    "capacity": 16,
    "profile_db": "db.json",
    "prewarm": ["fig3", "fig5"],
    "prewarm_threads": 2,
    "max_pending": 32,
    "time_scale": 0.5,
    "io_threads": 2
  })"));
  EXPECT_EQ(options.port, 7411);
  EXPECT_EQ(options.serving.pool.spec_string(), "v100x2,k80");
  EXPECT_EQ(options.serving.num_workers, 3);
  EXPECT_EQ(options.serving.batching.batch_sizes,
            (std::vector<int>{1, 4, 8}));
  EXPECT_EQ(options.serving.batching.max_queue_delay_us, 750);
  EXPECT_EQ(options.serving.cache.num_shards, 4u);
  EXPECT_EQ(options.serving.cache.shard_capacity, 16u);
  EXPECT_EQ(options.serving.profile_db, "db.json");
  EXPECT_EQ(options.prewarm_models,
            (std::vector<std::string>{"fig3", "fig5"}));
  EXPECT_EQ(options.prewarm_threads, 2);
  EXPECT_EQ(options.max_pending, 32u);
  EXPECT_EQ(options.time_scale, 0.5);
  EXPECT_EQ(options.io_threads, 2);
}

TEST(DaemonConfig, UnknownKeysAreRejected) {
  EXPECT_THROW(daemon_options_from_json(JsonValue::parse(R"({"prot":1})")),
               std::runtime_error);
  EXPECT_THROW(daemon_options_from_json(JsonValue::parse("[]")),
               std::runtime_error);
}

TEST(DaemonConfig, OutOfRangeValuesAreRejectedByName) {
  const auto rejects = [](const std::string& key, const std::string& value) {
    const std::string json = "{\"" + key + "\": " + value + "}";
    try {
      daemon_options_from_json(JsonValue::parse(json));
      ADD_FAILURE() << json << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  };
  rejects("port", "70000");
  rejects("port", "-1");
  for (const char* key :
       {"workers", "shards", "capacity", "max_pending", "io_threads"}) {
    rejects(key, "0");
    rejects(key, "-1");
  }
  rejects("time_scale", "-0.5");
  rejects("max_line_bytes", "-1");

  // The bounds themselves are accepted; max_line_bytes 0 means unlimited.
  const DaemonOptions edge = daemon_options_from_json(JsonValue::parse(R"({
    "port": 65535, "workers": 1, "shards": 1, "capacity": 1,
    "max_pending": 1, "io_threads": 1, "time_scale": 0, "max_line_bytes": 0
  })"));
  EXPECT_EQ(edge.port, 65535);
  EXPECT_EQ(edge.serving.cache.num_shards, 1u);
  EXPECT_EQ(edge.time_scale, 0);
  EXPECT_EQ(edge.max_line_bytes, 0u);
}

// ---- in-process daemon ---------------------------------------------------

DaemonOptions test_daemon_options() {
  DaemonOptions options;
  options.port = 0;  // ephemeral
  options.serving.device = "v100";
  options.serving.num_workers = 2;
  options.serving.batching.batch_sizes = {1, 2, 4};
  options.serving.batching.max_queue_delay_us = 2000;
  options.time_scale = 0;  // execute instantly: tests must not sleep
  options.io_threads = 2;
  return options;
}

TEST(DaemonTest, ServesPingInferStatsAndDrains) {
  DaemonOptions daemon_options = test_daemon_options();
  // Deadline far in the future: the batch of 4 below can only form when
  // the fourth request lands, however slowly the wire delivers them.
  daemon_options.serving.batching.max_queue_delay_us = 1e9;
  Daemon daemon(daemon_options);
  daemon.start();
  ASSERT_TRUE(daemon.running());
  ASSERT_GT(daemon.port(), 0);

  Socket client = Socket::connect_to("127.0.0.1", daemon.port());
  std::string line;

  client.write_all(R"({"id":1,"cmd":"ping"})" "\n");
  ASSERT_TRUE(client.read_line(line));
  const JsonValue pong = JsonValue::parse(line);
  EXPECT_EQ(pong.at("id").as_int(), 1);
  EXPECT_TRUE(pong.at("ok").as_bool());
  EXPECT_TRUE(pong.at("pong").as_bool());

  // Four pipelined inference requests complete a full batch of 4.
  for (int i = 10; i < 14; ++i) {
    WireRequest request;
    request.id = i;
    request.model = "fig3";
    client.write_all(format_request(request) + "\n");
  }
  std::vector<WireResponse> responses;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.read_line(line));
    responses.push_back(parse_response(line));
  }
  for (const WireResponse& r : responses) {
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.model, "fig3");
    EXPECT_EQ(r.device, "Tesla V100");
    EXPECT_EQ(r.batch_size, 4);
    EXPECT_GE(r.latency_us, 0);
    EXPECT_GE(r.wall_latency_us, 0);
  }

  client.write_all(R"({"id":2,"cmd":"stats"})" "\n");
  ASSERT_TRUE(client.read_line(line));
  const JsonValue stats = JsonValue::parse(line);
  EXPECT_TRUE(stats.at("ok").as_bool());
  EXPECT_EQ(stats.at("admitted").as_int(), 4);
  EXPECT_EQ(stats.at("completed").as_int(), 4);
  EXPECT_EQ(stats.at("pending").as_int(), 0);

  daemon.stop();
  EXPECT_FALSE(daemon.running());
  const DaemonStats final_stats = daemon.stats();
  EXPECT_EQ(final_stats.connections, 1);
  EXPECT_EQ(final_stats.admitted, 4);
  EXPECT_EQ(final_stats.completed, 4);
  EXPECT_EQ(final_stats.rejected, 0);
}

TEST(DaemonTest, UnknownModelAndGarbageAreSingleRequestErrors) {
  Daemon daemon(test_daemon_options());
  daemon.start();
  Socket client = Socket::connect_to("127.0.0.1", daemon.port());
  std::string line;

  client.write_all(R"({"id":5,"model":"not_a_model"})" "\n");
  ASSERT_TRUE(client.read_line(line));
  WireResponse response = parse_response(line);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.id, 5);
  EXPECT_NE(response.error.find("unknown model"), std::string::npos);
  EXPECT_NE(response.error.find("fig3"), std::string::npos);  // enumerates

  client.write_all("this is not json\n");
  ASSERT_TRUE(client.read_line(line));
  response = parse_response(line);
  EXPECT_FALSE(response.ok);

  // The connection survives both errors.
  client.write_all(R"({"id":6,"cmd":"ping"})" "\n");
  ASSERT_TRUE(client.read_line(line));
  EXPECT_EQ(JsonValue::parse(line).at("id").as_int(), 6);

  daemon.stop();
  EXPECT_EQ(daemon.stats().protocol_errors, 2);
}

TEST(DaemonTest, BoundedAdmissionRefusesThenDrainCompletesTheRest) {
  DaemonOptions options = test_daemon_options();
  options.serving.batching.batch_sizes = {8};       // nothing fills a batch
  options.serving.batching.max_queue_delay_us = 1e9;  // nor flushes in time
  options.max_pending = 2;
  Daemon daemon(options);
  daemon.start();
  Socket client = Socket::connect_to("127.0.0.1", daemon.port());

  // Three pipelined requests: the third must bounce off the admission
  // bound (requests on one connection are handled strictly in order).
  for (int i = 1; i <= 3; ++i) {
    WireRequest request;
    request.id = i;
    request.model = "fig3";
    client.write_all(format_request(request) + "\n");
  }
  std::string line;
  ASSERT_TRUE(client.read_line(line));
  const WireResponse refused = parse_response(line);
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.id, 3);
  EXPECT_EQ(refused.error, "overloaded");

  // Graceful drain answers the two admitted requests as a whole-queue
  // flush.
  daemon.stop();
  std::vector<WireResponse> drained;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.read_line(line));
    drained.push_back(parse_response(line));
  }
  for (const WireResponse& r : drained) {
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.batch_size, 2);
  }
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.admitted, 2);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.rejected, 1);
}

TEST(DaemonTest, AdaptiveReplansRunBesideIoAndExecutorThreads) {
  DaemonOptions options = test_daemon_options();
  options.serving.adaptive.enabled = true;
  options.serving.adaptive.warmup_arrivals = 4;
  options.serving.adaptive.min_replan_gap_us = 0;
  // A 1 us SLO on squeezenet misses every outcome, so attainment collapses
  // after warm-up and the batcher thread keeps re-planning through the
  // engine's Optimizer while the io and executor threads serve.
  options.serving.slo.models["squeezenet"] = serve::SloClass{1, 0};
  Daemon daemon(options);
  daemon.start();
  Socket client = Socket::connect_to("127.0.0.1", daemon.port());

  // Closed loop: each request waits for its answer before the next one.
  for (int i = 0; i < 40; ++i) {
    WireRequest request;
    request.id = i;
    request.model = i % 2 == 0 ? "squeezenet" : "mobilenet_v2";
    client.write_all(format_request(request) + "\n");
    std::string line;
    ASSERT_TRUE(client.read_line(line));
    const WireResponse response = parse_response(line);
    EXPECT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.id, i);
  }
  daemon.stop();
  std::string extra;
  EXPECT_FALSE(client.read_line(extra)) << "second answer: " << extra;
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.admitted, 40);
  EXPECT_EQ(stats.completed, stats.admitted);
  EXPECT_GE(stats.replans, 1);
}

TEST(DaemonTest, StopIsIdempotentAndDestructorIsSafe) {
  Daemon daemon(test_daemon_options());
  daemon.start();
  daemon.stop();
  daemon.stop();  // second stop is a no-op
  EXPECT_FALSE(daemon.running());
  // Destructor runs stop() again on scope exit — must not hang or throw.
}

TEST(DaemonTest, ManyConnectionsShareTheBatcher) {
  DaemonOptions options = test_daemon_options();
  options.io_threads = 4;
  Daemon daemon(options);
  daemon.start();

  // Four clients, three requests each, all for one model: the engine
  // coalesces across connections (that is the point of a shared batcher).
  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&daemon, &ok_count, c] {
      Socket client = Socket::connect_to("127.0.0.1", daemon.port());
      for (int i = 0; i < 3; ++i) {
        WireRequest request;
        request.id = c * 10 + i;
        request.model = "fig3";
        client.write_all(format_request(request) + "\n");
      }
      std::string line;
      for (int i = 0; i < 3; ++i) {
        if (!client.read_line(line)) break;
        const WireResponse response = parse_response(line);
        if (response.ok) ok_count.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  daemon.stop();
  EXPECT_EQ(ok_count.load(), 12);
  EXPECT_EQ(daemon.stats().admitted, 12);
  EXPECT_EQ(daemon.stats().completed, 12);
}

// ---- fault injection -----------------------------------------------------

TEST(FaultInjectorTest, SameSeedReplaysTheSamePlans) {
  FaultSpec spec;
  spec.seed = 42;
  spec.torn_write_prob = 0.5;
  spec.disconnect_prob = 0.2;
  spec.stall_prob = 0.3;
  FaultInjector a(spec), b(spec);
  for (int i = 0; i < 200; ++i) {
    const std::size_t size = 1 + static_cast<std::size_t>(i) * 7 % 300;
    const FaultInjector::WritePlan pa = a.plan_write(size);
    const FaultInjector::WritePlan pb = b.plan_write(size);
    EXPECT_EQ(pa.segments, pb.segments);
    EXPECT_EQ(pa.disconnect, pb.disconnect);
    EXPECT_EQ(pa.disconnect_after, pb.disconnect_after);
    // Segments always partition the write exactly.
    std::size_t total = 0;
    for (const std::size_t s : pa.segments) {
      EXPECT_GT(s, 0u);
      total += s;
    }
    EXPECT_EQ(total, size);
  }
  EXPECT_EQ(a.counters().torn_writes, b.counters().torn_writes);
  EXPECT_GT(a.counters().torn_writes, 0);
}

TEST(FaultInjectorTest, ZeroProbabilitiesInjectNothing) {
  FaultSpec spec;
  EXPECT_FALSE(spec.any());
  FaultInjector injector(spec);
  const FaultInjector::WritePlan plan = injector.plan_write(100);
  EXPECT_EQ(plan.segments, (std::vector<std::size_t>{100}));
  EXPECT_FALSE(plan.disconnect);
  EXPECT_EQ(injector.read_stall_us(), 0);
  EXPECT_FALSE(injector.should_refuse_connect());
}

TEST(SocketTest, TornWritesStillDeliverIntactLines) {
  ListenSocket listener(0);
  std::vector<std::string> received;
  std::thread server([&] {
    std::optional<Socket> conn = listener.accept_interruptible(-1);
    ASSERT_TRUE(conn.has_value());
    std::string line;
    while (conn->read_line(line)) received.push_back(line);
  });

  FaultSpec spec;
  spec.seed = 7;
  spec.torn_write_prob = 1.0;  // every write torn
  spec.stall_us = 100;
  FaultInjector injector(spec);
  Socket client = Socket::connect_to("127.0.0.1", listener.port());
  client.set_fault_injector(&injector);
  for (int i = 0; i < 20; ++i) {
    client.write_all("line-" + std::to_string(i) + "-padding-padding\n");
  }
  client.shutdown_write();
  server.join();
  ASSERT_EQ(received.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(received[static_cast<std::size_t>(i)],
              "line-" + std::to_string(i) + "-padding-padding");
  }
  EXPECT_GT(injector.counters().torn_writes, 0);
}

TEST(SocketTest, InjectedDisconnectThrowsAndPeerSeesEof) {
  ListenSocket listener(0);
  std::atomic<bool> got_eof{false};
  std::thread server([&] {
    std::optional<Socket> conn = listener.accept_interruptible(-1);
    ASSERT_TRUE(conn.has_value());
    std::string line;
    while (conn->read_line(line)) {
    }
    got_eof.store(true);
  });

  FaultSpec spec;
  spec.seed = 3;
  spec.disconnect_prob = 1.0;
  FaultInjector injector(spec);
  Socket client = Socket::connect_to("127.0.0.1", listener.port());
  client.set_fault_injector(&injector);
  try {
    // The injector may cut after 0 bytes of the first write or later;
    // either way some write must eventually throw kInjectedFault.
    for (int i = 0; i < 10; ++i) client.write_all("doomed-request-line\n");
    FAIL() << "injected disconnect never fired";
  } catch (const SocketError& e) {
    EXPECT_EQ(e.kind(), SocketErrorKind::kInjectedFault);
  }
  server.join();
  EXPECT_TRUE(got_eof.load());
  EXPECT_EQ(injector.counters().disconnects, 1);
}

TEST(SocketTest, InjectedConnectRefusalThrowsTypedError) {
  ListenSocket listener(0);
  FaultSpec spec;
  spec.refuse_connect_prob = 1.0;
  FaultInjector injector(spec);
  try {
    Socket::connect_to("127.0.0.1", listener.port(), &injector);
    FAIL() << "connect was not refused";
  } catch (const SocketError& e) {
    EXPECT_EQ(e.kind(), SocketErrorKind::kConnectRefused);
  }
  EXPECT_EQ(injector.counters().refused_connects, 1);
}

TEST(SocketTest, OversizedLineThrowsTypedError) {
  ListenSocket listener(0);
  std::thread server([&] {
    std::optional<Socket> conn = listener.accept_interruptible(-1);
    ASSERT_TRUE(conn.has_value());
    conn->set_max_line_bytes(64);
    std::string line;
    try {
      while (conn->read_line(line)) {
      }
      FAIL() << "oversized line was accepted";
    } catch (const SocketError& e) {
      EXPECT_EQ(e.kind(), SocketErrorKind::kOversizedLine);
    }
  });
  Socket client = Socket::connect_to("127.0.0.1", listener.port());
  client.write_all(std::string(500, 'x') + "\n");
  server.join();
}

TEST(SocketTest, ReadLineDeadlineTimesOutWithoutData) {
  ListenSocket listener(0);
  std::thread server([&] {
    std::optional<Socket> conn = listener.accept_interruptible(-1);
    ASSERT_TRUE(conn.has_value());
    std::string line;
    // Never receives a full line; 30ms deadline must fire.
    EXPECT_EQ(conn->read_line_deadline(line, 30e3), ReadStatus::kTimeout);
    // A line that then arrives is still delivered.
    EXPECT_EQ(conn->read_line_deadline(line, 5e6), ReadStatus::kLine);
    EXPECT_EQ(line, "partial-then-finished");
  });
  Socket client = Socket::connect_to("127.0.0.1", listener.port());
  client.write_all("partial-then-finished");  // no newline yet
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  client.write_all("\n");
  server.join();
}

// ---- daemon fault tolerance ----------------------------------------------

TEST(DaemonConfig, ParsesFaultToleranceKeys) {
  const DaemonOptions options = daemon_options_from_json(JsonValue::parse(R"({
    "idle_timeout_us": 5e6,
    "write_timeout_us": 2e6,
    "max_line_bytes": 4096,
    "chaos": true,
    "stuck_grace_us": 250000,
    "watchdog_interval_us": 10000,
    "fault": {"seed": 9, "torn_write_prob": 0.5, "stall_prob": 0.25,
              "stall_us": 150, "disconnect_prob": 0.1}
  })"));
  EXPECT_EQ(options.idle_timeout_us, 5e6);
  EXPECT_EQ(options.write_timeout_us, 2e6);
  EXPECT_EQ(options.max_line_bytes, 4096u);
  EXPECT_TRUE(options.chaos);
  EXPECT_EQ(options.stuck_grace_us, 250000);
  EXPECT_EQ(options.watchdog_interval_us, 10000);
  EXPECT_EQ(options.fault.seed, 9u);
  EXPECT_EQ(options.fault.torn_write_prob, 0.5);
  EXPECT_EQ(options.fault.stall_prob, 0.25);
  EXPECT_EQ(options.fault.stall_us, 150);
  EXPECT_EQ(options.fault.disconnect_prob, 0.1);
  EXPECT_THROW(daemon_options_from_json(
                   JsonValue::parse(R"({"fault": {"seeed": 1}})")),
               std::runtime_error);
}

TEST(DaemonTest, IdleConnectionsAreClosedAndCounted) {
  DaemonOptions options = test_daemon_options();
  options.idle_timeout_us = 50e3;  // 50ms
  Daemon daemon(options);
  daemon.start();

  Socket client = Socket::connect_to("127.0.0.1", daemon.port());
  std::string line;
  // The daemon must close the idle connection (EOF on our side) without
  // being poked.
  EXPECT_EQ(client.read_line_deadline(line, 5e6), ReadStatus::kEof);
  // Closing is accounting, not an error: new connections still work.
  Socket fresh = Socket::connect_to("127.0.0.1", daemon.port());
  fresh.write_all(R"({"id":1,"cmd":"ping"})" "\n");
  ASSERT_TRUE(fresh.read_line(line));
  EXPECT_TRUE(JsonValue::parse(line).at("ok").as_bool());
  daemon.stop();
  EXPECT_GE(daemon.stats().idle_closes, 1);
  EXPECT_EQ(daemon.stats().protocol_errors, 0);
}

TEST(DaemonTest, OversizedRequestLineIsAProtocolErrorThenClose) {
  DaemonOptions options = test_daemon_options();
  options.max_line_bytes = 256;
  Daemon daemon(options);
  daemon.start();

  Socket client = Socket::connect_to("127.0.0.1", daemon.port());
  client.write_all(std::string(4096, 'a') + "\n");
  std::string line;
  // One error response naming the violation, then a clean close.
  ASSERT_TRUE(client.read_line(line));
  const JsonValue error = JsonValue::parse(line);
  EXPECT_FALSE(error.at("ok").as_bool());
  EXPECT_NE(error.at("error").as_string().find("line"), std::string::npos);
  EXPECT_EQ(client.read_line_deadline(line, 5e6), ReadStatus::kEof);
  daemon.stop();
  EXPECT_EQ(daemon.stats().oversized_lines, 1);
  EXPECT_EQ(daemon.stats().protocol_errors, 1);
}

TEST(DaemonTest, HealthReportsWorkersAndChaosVerbsAreGated) {
  Daemon daemon(test_daemon_options());  // chaos defaults to off
  daemon.start();
  Socket client = Socket::connect_to("127.0.0.1", daemon.port());
  std::string line;

  client.write_all(R"({"id":5,"cmd":"health"})" "\n");
  ASSERT_TRUE(client.read_line(line));
  const JsonValue health = JsonValue::parse(line);
  EXPECT_TRUE(health.at("ok").as_bool());
  EXPECT_EQ(health.at("workers").as_int(), 2);
  EXPECT_EQ(health.at("alive").as_int(), 2);
  EXPECT_EQ(health.at("worker_deaths").as_int(), 0);

  // kill_worker/stall_worker are rejected unless the daemon opted into
  // chaos — a remote client must not be able to kill workers by default.
  client.write_all(R"({"id":6,"cmd":"kill_worker","worker":0})" "\n");
  ASSERT_TRUE(client.read_line(line));
  const JsonValue refused = JsonValue::parse(line);
  EXPECT_FALSE(refused.at("ok").as_bool());
  EXPECT_NE(refused.at("error").as_string().find("chaos"),
            std::string::npos);
  daemon.stop();
  EXPECT_EQ(daemon.stats().worker_deaths, 0);
}

TEST(DaemonTest, KilledWorkerIsRoutedAroundAndLastWorkerIsProtected) {
  Daemon daemon(test_daemon_options());
  daemon.start();

  std::string error;
  EXPECT_FALSE(daemon.kill_worker(7, &error));   // out of range
  EXPECT_TRUE(daemon.kill_worker(0, &error)) << error;
  EXPECT_FALSE(daemon.kill_worker(0, &error));   // already dead
  EXPECT_FALSE(daemon.kill_worker(1, &error));   // last alive is protected
  EXPECT_NE(error.find("last"), std::string::npos);

  // The survivor serves everything.
  Socket client = Socket::connect_to("127.0.0.1", daemon.port());
  std::string line;
  for (int i = 0; i < 6; ++i) {
    WireRequest request;
    request.id = i;
    request.model = "fig3";
    client.write_all(format_request(request) + "\n");
  }
  int ok = 0;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(client.read_line(line));
    const WireResponse response = parse_response(line);
    EXPECT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.worker, 1);
    if (response.ok) ++ok;
  }
  EXPECT_EQ(ok, 6);

  client.write_all(R"({"id":99,"cmd":"health"})" "\n");
  ASSERT_TRUE(client.read_line(line));
  const JsonValue health = JsonValue::parse(line);
  EXPECT_EQ(health.at("alive").as_int(), 1);
  ASSERT_EQ(health.at("dead_workers").as_array().size(), 1u);
  EXPECT_EQ(health.at("dead_workers").as_array()[0].as_int(), 0);
  daemon.stop();
  EXPECT_EQ(daemon.stats().worker_deaths, 1);
}

TEST(DaemonTest, WatchdogKillsStalledWorkerAndRequeuesItsBatch) {
  DaemonOptions options = test_daemon_options();
  options.chaos = true;
  options.stuck_grace_us = 30e3;        // stuck = 30ms past its deadline
  options.watchdog_interval_us = 5e3;   // polled every 5ms
  Daemon daemon(options);
  daemon.start();

  Socket client = Socket::connect_to("127.0.0.1", daemon.port());
  std::string line;
  // Wedge worker 0's next batch far past the watchdog grace (10s >> 30ms).
  client.write_all(R"({"id":1,"cmd":"stall_worker","worker":0,)"
                   R"("stall_us":10e6})" "\n");
  ASSERT_TRUE(client.read_line(line));
  ASSERT_TRUE(JsonValue::parse(line).at("ok").as_bool()) << line;

  // Every request must be answered even though the first batch wedges on
  // worker 0: the watchdog detects it, kills the worker, and the batch is
  // requeued to the survivor.
  for (int i = 0; i < 8; ++i) {
    WireRequest request;
    request.id = 10 + i;
    request.model = "fig3";
    client.write_all(format_request(request) + "\n");
  }
  int ok = 0;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client.read_line(line));
    const WireResponse response = parse_response(line);
    EXPECT_TRUE(response.ok) << response.error;
    if (response.ok) ++ok;
  }
  EXPECT_EQ(ok, 8);
  daemon.stop();
  EXPECT_EQ(daemon.stats().worker_deaths, 1);
  EXPECT_GE(daemon.stats().requeued_requests, 1);
  EXPECT_EQ(daemon.stats().completed, 8);
}

TEST(DaemonTest, KillStealsBatchesQueuedBehindAWedgedWorker) {
  DaemonOptions options = test_daemon_options();
  options.serving.batching.batch_sizes = {1};  // one batch per request
  options.prewarm_models = {"fig3"};  // no search on the request path
  options.time_scale = 0.05;  // executors occupy wall time
  options.chaos = true;       // stall_worker; no watchdog
  Daemon daemon(options);
  daemon.start();

  Socket client = Socket::connect_to("127.0.0.1", daemon.port());
  std::string line;
  client.write_all(R"({"id":1,"cmd":"stall_worker","worker":0,)"
                   R"("stall_us":10e6})" "\n");
  ASSERT_TRUE(client.read_line(line));
  ASSERT_TRUE(JsonValue::parse(line).at("ok").as_bool()) << line;

  // Pipelined requests alternate between the two workers (the router's
  // predicted backlogs stay equal): worker 0 wedges on its first batch and
  // queues the rest of its share behind it; worker 1 answers its share.
  constexpr int kRequests = 8;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    WireRequest request;
    request.id = 100 + i;
    request.model = "fig3";
    burst += format_request(request) + "\n";
  }
  client.write_all(burst);
  std::set<std::int64_t> answered;
  const auto answer = [&](const std::string& response_line) {
    const WireResponse response = parse_response(response_line);
    EXPECT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.worker, 1);
    EXPECT_TRUE(answered.insert(response.id).second)
        << "request " << response.id << " answered twice";
  };
  // Once worker 1 goes quiet, every unanswered request sits on worker 0.
  while (client.read_line_deadline(line, 500e3) == ReadStatus::kLine) {
    answer(line);
  }
  const int stuck = kRequests - static_cast<int>(answered.size());
  ASSERT_GE(stuck, 2);  // the wedged batch and at least one queued behind

  std::string error;
  ASSERT_TRUE(daemon.kill_worker(0, &error)) << error;
  for (int i = 0; i < stuck; ++i) {
    ASSERT_EQ(client.read_line_deadline(line, 10e6), ReadStatus::kLine);
    answer(line);
  }
  EXPECT_EQ(answered.size(), static_cast<std::size_t>(kRequests));
  EXPECT_EQ(client.read_line_deadline(line, 100e3), ReadStatus::kTimeout);
  daemon.stop();
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.admitted, kRequests);
  EXPECT_EQ(stats.completed, stats.admitted);
  EXPECT_EQ(stats.worker_deaths, 1);
  EXPECT_GE(stats.requeued_requests, stuck);
}

}  // namespace
}  // namespace ios
