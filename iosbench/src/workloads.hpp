#pragma once
// The benchmark's workloads. Each runs its set-up, measures for
// cfg.seconds, gates every output, and fills `result`: end-to-end metrics
// always, per-layer metrics (and spans in `tracer`) when cfg.trace is set.
// A layer a workload never calls is left out; run.py reports it as 0.

#include "harness.hpp"

namespace iosbench {

/// optimize_cold (warm = false) and optimize_warm (warm = true).
void run_optimize(const RunConfig& cfg, bool warm, Tracer& tracer,
                  RunResult& result);

/// serve_loopback.
void run_serve(const RunConfig& cfg, Tracer& tracer, RunResult& result);

}  // namespace iosbench
