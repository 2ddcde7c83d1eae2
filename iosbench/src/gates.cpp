#include "gates.hpp"

#include <algorithm>
#include <cmath>
#include <exception>

#include "runtime/executor.hpp"
#include "schedule/baselines.hpp"
#include "sim/device.hpp"

namespace iosbench {
namespace {

ios::ExecConfig exec_config() {
  return ios::ExecConfig{ios::device_by_name(kDevice),
                         ios::KernelModelParams{}};
}

}  // namespace

Baselines eval_baselines(const ios::Graph& g) {
  const ios::Executor ex(g, exec_config());
  return {ex.schedule_latency_us(ios::sequential_schedule(g)),
          ex.schedule_latency_us(ios::greedy_schedule(g))};
}

std::string check_schedule(const ios::Graph& g, const ios::Schedule& q,
                           double reported_us, const Baselines& baselines) {
  const std::string who = g.name() + ": ";
  try {
    ios::validate_schedule(g, q);
  } catch (const std::exception& e) {
    return who + "invalid schedule: " + e.what();
  }
  const double us = ios::Executor(g, exec_config()).schedule_latency_us(q);
  if (us != reported_us) {
    return who + "reported latency " + std::to_string(reported_us) +
           " us, re-simulated " + std::to_string(us) + " us";
  }
  if (us > baselines.sequential_us || us > baselines.greedy_us) {
    return who + "schedule (" + std::to_string(us) +
           " us) is slower than a baseline (sequential " +
           std::to_string(baselines.sequential_us) + ", greedy " +
           std::to_string(baselines.greedy_us) + ")";
  }
  return "";
}

std::vector<std::string> check_answers(const std::vector<std::string>& models,
                                       std::int64_t first_id,
                                       const std::vector<Answer>& answers,
                                       const std::vector<int>& batch_sizes) {
  std::vector<std::string> problems;
  std::vector<int> seen(models.size(), 0);
  for (const Answer& a : answers) {
    const std::int64_t k = a.id - first_id;
    if (k < 0 || k >= static_cast<std::int64_t>(models.size())) {
      problems.push_back("answer for unknown id " + std::to_string(a.id));
      continue;
    }
    if (++seen[static_cast<std::size_t>(k)] == 2) {
      problems.push_back("id " + std::to_string(a.id) + " answered twice");
    }
    if (!a.ok) continue;
    if (a.model != models[static_cast<std::size_t>(k)]) {
      problems.push_back("id " + std::to_string(a.id) + " echoed model '" +
                         a.model + "', asked for '" +
                         models[static_cast<std::size_t>(k)] + "'");
    }
    if (std::find(batch_sizes.begin(), batch_sizes.end(), a.batch_size) ==
        batch_sizes.end()) {
      problems.push_back("id " + std::to_string(a.id) +
                         " rode in an unconfigured batch size " +
                         std::to_string(a.batch_size));
    }
  }
  const auto missing = std::count(seen.begin(), seen.end(), 0);
  if (missing > 0) {
    problems.push_back(std::to_string(missing) + " of " +
                       std::to_string(models.size()) + " ids never answered");
  }
  return problems;
}

std::string self_test_schedule(const ios::Graph& g, const ios::Schedule& q,
                               double reported_us, const Baselines& baselines) {
  ios::Schedule broken = q;
  for (auto it = broken.stages.rbegin(); it != broken.stages.rend(); ++it) {
    if (it->groups.empty() || it->groups.back().ops.empty()) continue;
    it->groups.back().ops.pop_back();
    break;
  }
  if (check_schedule(g, broken, reported_us, baselines).empty()) {
    return g.name() + ": the schedule gate accepted a schedule with one op "
                      "dropped";
  }
  return "";
}

std::string self_test_answers(const std::vector<std::string>& models,
                              std::int64_t first_id,
                              const std::vector<Answer>& answers,
                              const std::vector<int>& batch_sizes) {
  if (answers.empty()) return "";
  std::vector<Answer> withheld(answers.begin() + 1, answers.end());
  if (check_answers(models, first_id, withheld, batch_sizes).empty()) {
    return "the answer gate accepted a trace with one response withheld";
  }
  return "";
}

}  // namespace iosbench
