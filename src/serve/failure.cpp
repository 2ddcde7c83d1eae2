#include "serve/failure.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace ios::serve {

FailureInjector::FailureInjector(const FailureSpec& spec) : rng_(spec.seed) {
  if (!spec.schedule.empty()) {
    if (!std::is_sorted(spec.schedule.begin(), spec.schedule.end(),
                        [](const KillEvent& a, const KillEvent& b) {
                          return a.time_us < b.time_us;
                        })) {
      throw std::invalid_argument(
          "failure spec: the scripted schedule must be sorted by time");
    }
    schedule_ = spec.schedule;
    return;
  }
  if (spec.max_kills < 0) {
    throw std::invalid_argument("failure spec: max_kills must be >= 0");
  }
  if (spec.max_kills > 0 && !(spec.mean_time_between_kills_us > 0)) {
    throw std::invalid_argument(
        "failure spec: mean_time_between_kills_us must be > 0");
  }
  // Fix the kill times up front: a Poisson process with exponential gaps.
  // Drawing them all now keeps the victim draws at fire time independent of
  // how many gaps were consumed, which keeps scripted and seeded runs on
  // the same Rng discipline.
  double t = spec.first_kill_at_us;
  for (int k = 0; k < spec.max_kills; ++k) {
    t += -std::log(1.0 - rng_.uniform()) * spec.mean_time_between_kills_us;
    schedule_.push_back(KillEvent{t, -1});
  }
}

double FailureInjector::next_kill_us() const {
  if (fired_ >= static_cast<int>(schedule_.size())) {
    return std::numeric_limits<double>::infinity();
  }
  return schedule_[static_cast<std::size_t>(fired_)].time_us;
}

int FailureInjector::fire(const std::vector<int>& alive) {
  if (fired_ >= static_cast<int>(schedule_.size())) {
    throw std::logic_error("failure injector: no kill pending");
  }
  if (alive.empty()) {
    throw std::invalid_argument(
        "failure injector: no alive workers to kill");
  }
  const KillEvent& event = schedule_[static_cast<std::size_t>(fired_)];
  int victim = event.worker;
  if (victim < 0) {
    victim = alive[static_cast<std::size_t>(
        rng_.uniform_int(static_cast<int>(alive.size())))];
  } else if (std::find(alive.begin(), alive.end(), victim) == alive.end()) {
    throw std::invalid_argument(
        "failure injector: scripted victim " + std::to_string(victim) +
        " is not alive");
  }
  ++fired_;
  return victim;
}

}  // namespace ios::serve
