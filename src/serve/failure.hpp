#pragma once
// ios::serve::FailureInjector — deterministic worker-failure schedules for
// the DES Server's kill events (Server::run). Two modes:
//
//   * seeded: kill times follow a Poisson process (exponential gaps from a
//     seeded ios::Rng) and each victim is drawn uniformly from the workers
//     still alive at fire time. Same seed => same kills, bit-identical.
//   * scripted: an explicit KillEvent schedule, for tests that need to
//     wipe out a specific class at a specific virtual time.
//
// The injector owns *when* and *who*; the ServingEngine owns the
// consequences (steal the victim's batches, requeue their members).

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace ios::serve {

/// One scripted kill: a virtual time and a victim worker (or -1 to let the
/// seeded Rng pick among the then-alive workers).
struct KillEvent {
  double time_us = 0;
  int worker = -1;
};

/// Failure model configuration. When `schedule` is non-empty it overrides
/// the seeded Poisson mode entirely.
struct FailureSpec {
  std::uint64_t seed = 1;
  /// Kills to inject in seeded mode (0 disables failures).
  int max_kills = 0;
  /// Mean exponential gap between seeded kills, virtual microseconds.
  double mean_time_between_kills_us = 2e5;
  /// Virtual time before the first seeded kill gap starts.
  double first_kill_at_us = 0;
  /// Scripted schedule; must be sorted by time_us, ascending.
  std::vector<KillEvent> schedule;
};

/// Walks a FailureSpec's kill sequence. Deterministic: the kill times are
/// fixed at construction; only the victim draw consumes Rng state at fire
/// time (so victims depend on who is alive, never on wall time).
class FailureInjector {
 public:
  /// Throws std::invalid_argument on a negative max_kills, a non-positive
  /// mean gap with max_kills > 0, or an unsorted scripted schedule.
  explicit FailureInjector(const FailureSpec& spec);

  /// Virtual time of the next kill, or +infinity when exhausted.
  double next_kill_us() const;

  /// Fires the pending kill and advances to the next one. `alive` is the
  /// ascending list of currently-alive workers; returns the victim (the
  /// scripted worker, or a seeded uniform pick from `alive`). Throws
  /// std::logic_error when exhausted, std::invalid_argument when `alive` is
  /// empty or a scripted victim is not in it.
  int fire(const std::vector<int>& alive);

  int kills_fired() const { return fired_; }

 private:
  std::vector<KillEvent> schedule_;  ///< resolved kill sequence
  int fired_ = 0;
  Rng rng_;
};

}  // namespace ios::serve
