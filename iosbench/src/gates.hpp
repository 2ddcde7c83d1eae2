#pragma once
// Correctness gates: every output a workload produces passes through one of
// these before its timing counts. Each workload also feeds them a broken
// copy of its own output (self_test_*) and fails the run if a gate accepts
// it, so a gate that has stopped checking cannot pass silently.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "schedule/schedule.hpp"

namespace iosbench {

/// The device every workload targets.
inline constexpr const char* kDevice = "v100";

/// Simulated latencies of the paper's two reference schedules on kDevice.
struct Baselines {
  double sequential_us = 0;
  double greedy_us = 0;
};
Baselines eval_baselines(const ios::Graph& g);

/// Validates `q` on `g`, re-simulates it on an independent Executor, and
/// requires that latency to equal `reported_us` and to be no higher than
/// either baseline. Returns "" on success, else the reason.
std::string check_schedule(const ios::Graph& g, const ios::Schedule& q,
                           double reported_us, const Baselines& baselines);

/// One response as the client saw it.
struct Answer {
  std::int64_t id = 0;
  bool ok = false;
  std::string model;
  int batch_size = 0;
};

/// Requires every id in [first_id, first_id + models.size()) to be answered
/// exactly once, by `answers`, and every ok answer to echo the model its
/// request named (models[id - first_id]) and to carry one of `batch_sizes`.
/// Not-ok answers ("overloaded", ...) are failures the caller counts, not
/// gate violations. Returns the problems found (empty = pass).
std::vector<std::string> check_answers(const std::vector<std::string>& models,
                                       std::int64_t first_id,
                                       const std::vector<Answer>& answers,
                                       const std::vector<int>& batch_sizes);

/// Drops one op from a schedule that passed check_schedule and returns ""
/// when the gate rejects the result, else why the self-test failed.
std::string self_test_schedule(const ios::Graph& g, const ios::Schedule& q,
                               double reported_us, const Baselines& baselines);

/// Withholds one response from answers that passed check_answers and
/// returns "" when the gate rejects the result.
std::string self_test_answers(const std::vector<std::string>& models,
                              std::int64_t first_id,
                              const std::vector<Answer>& answers,
                              const std::vector<int>& batch_sizes);

}  // namespace iosbench
