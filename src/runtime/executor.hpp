#pragma once
// Executor: runs a Schedule on the simulated GPU and reports latency. This
// mirrors the paper's C++/cuDNN execution engine: each group of a concurrent
// stage becomes a CUDA-stream-like kernel stream; a merge stage becomes one
// stacked convolution followed by channel splits; stages are separated by a
// synchronization whose cost is only paid when the stage actually used
// multiple streams.

#include "graph/graph.hpp"
#include "schedule/merge.hpp"
#include "schedule/schedule.hpp"
#include "sim/engine.hpp"
#include "sim/kernel_model.hpp"

namespace ios {

struct ExecConfig {
  DeviceSpec device;
  KernelModelParams kernel_params;
};

/// The constructor builds each op's KernelDesc once, into a table indexed
/// by op id that every stage simulation reads. The graph must therefore not
/// change after construction: ops added later have no kernel, and kernels
/// of changed ops are stale.
class Executor {
 public:
  Executor(const Graph& g, ExecConfig cfg);

  const Graph& graph() const { return graph_; }
  const DeviceSpec& device() const { return engine_.device(); }
  const KernelModelParams& kernel_params() const { return kparams_; }

  /// Latency of one stage in microseconds, including the closing
  /// synchronization when the stage ran more than one stream. Simulates
  /// through Engine::makespan_us: a concurrent stage of up to
  /// Engine::kInlineStreams groups makes no heap allocation.
  double stage_latency_us(const Stage& stage) const;

  /// End-to-end latency of the schedule (sum of stage latencies).
  double schedule_latency_us(const Schedule& q) const;

  /// Full simulation of the schedule: kernel timeline and resident-warp
  /// trace across all stages (stage t=0 offsets applied).
  SimResult run_schedule(const Schedule& q) const;

  /// The kernel streams a stage expands to (exposed for tests).
  std::vector<KernelStream> stage_streams(const Stage& stage) const;

 private:
  const Graph& graph_;
  Engine engine_;
  KernelModelParams kparams_;
  /// kernels_[id]: kernel_for_op(graph_, id); default for input ops.
  std::vector<KernelDesc> kernels_;
};

/// Kernel for a merged convolution stage: one stacked conv reading the
/// shared input once, plus one split (channel slice copy) per original op.
KernelStream merged_stage_stream(const Graph& g, const MergeInfo& info,
                                 const KernelModelParams& params);

}  // namespace ios
