#include "frameworks/frameworks.hpp"

#include <unordered_map>
#include <unordered_set>

#include "runtime/executor.hpp"
#include "schedule/baselines.hpp"
#include "schedule/merge.hpp"
#include "sim/engine.hpp"
#include "sim/kernel_model.hpp"

namespace ios::frameworks {

FrameworkSpec tensorflow_spec() {
  return {.name = "TensorFlow", .launch_scale = 2.6};
}

FrameworkSpec tensorflow_xla_spec() {
  return {.name = "TensorFlow-XLA",
          .launch_scale = 1.7,
          .fuse_elementwise = true};
}

FrameworkSpec taso_spec() {
  return {.name = "TASO", .launch_scale = 1.1, .merge_substitution = true};
}

FrameworkSpec tvm_cudnn_spec() {
  return {.name = "TVM-cuDNN", .launch_scale = 1.15};
}

FrameworkSpec tensorrt_spec() {
  return {.name = "TensorRT",
          .launch_scale = 0.8,
          .merge_substitution = true};
}

FrameworkSpec tvm_autotune_spec() {
  // Ansor-style autotuning: graph-level codegen with almost no runtime
  // dispatch overhead and depthwise-separable kernels ~3x better than
  // cuDNN's notoriously slow grouped convolutions.
  return {.name = "TVM-AutoTune",
          .launch_scale = 0.85,
          .conv_eff_scale = 1.05,
          .sepconv_eff_scale = 4.5,
          .tuning_trials = 900};
}

std::vector<FrameworkSpec> cudnn_baselines() {
  return {tensorflow_spec(), tensorflow_xla_spec(), taso_spec(),
          tvm_cudnn_spec(), tensorrt_spec()};
}

namespace {

KernelModelParams scaled_params(const FrameworkSpec& spec) {
  KernelModelParams p;
  p.conv_efficiency = std::min(1.0, p.conv_efficiency * spec.conv_eff_scale);
  p.matmul_efficiency =
      std::min(1.0, p.matmul_efficiency * spec.conv_eff_scale);
  p.sepconv_efficiency =
      std::min(1.0, p.sepconv_efficiency * spec.sepconv_eff_scale);
  return p;
}

/// Greedy TASO/TensorRT-style substitution: for every producer, merge the
/// maximal mergeable set of its consumer convolutions if the merged kernel
/// (plus splits) is faster than executing them one-by-one.
std::vector<MergeInfo> find_profitable_merges(const Graph& g,
                                              const Engine& engine,
                                              const KernelModelParams& params) {
  std::vector<MergeInfo> merges;
  std::unordered_set<OpId> taken;
  for (const Op& producer : g.ops()) {
    std::vector<OpId> candidates;
    for (OpId c : g.succs(producer.id)) {
      const Op& consumer = g.op(c);
      if (consumer.kind == OpKind::kConv2d && consumer.inputs.size() == 1 &&
          !taken.contains(c)) {
        candidates.push_back(c);
      }
    }
    if (candidates.size() < 2) continue;
    // Try the full candidate set first, then drop the op with the largest
    // kernel extent until mergeable (simple but effective for sibling
    // branches with mixed kernel sizes).
    while (candidates.size() >= 2) {
      const auto info = analyze_merge(g, candidates);
      if (info) {
        double sequential = 0;
        for (OpId id : candidates) {
          sequential += engine.kernel_latency_us(kernel_for_op(g, id, params));
        }
        const KernelStream merged_stream =
            merged_stage_stream(g, *info, params);
        const double merged = engine.makespan_us({&merged_stream, 1});
        if (merged < sequential) {
          merges.push_back(*info);
          for (OpId id : candidates) taken.insert(id);
        }
        break;
      }
      candidates.pop_back();
    }
  }
  return merges;
}

}  // namespace

FrameworkResult run_framework(const Graph& g, const DeviceSpec& device,
                              const FrameworkSpec& spec) {
  DeviceSpec dev = device;
  dev.kernel_launch_us *= spec.launch_scale;
  const KernelModelParams params = scaled_params(spec);
  Engine engine(dev);

  FrameworkResult result;
  result.name = spec.name;

  // Substitution pass (TASO / TensorRT).
  std::vector<MergeInfo> merges;
  std::unordered_map<OpId, std::size_t> merged_into;
  if (spec.merge_substitution) {
    merges = find_profitable_merges(g, engine, params);
    for (std::size_t m = 0; m < merges.size(); ++m) {
      for (OpId id : merges[m].ops) merged_into[id] = m;
    }
  }

  // Sequential execution: one stream, topological order, merges emitted at
  // their first member.
  KernelStream stream;
  std::unordered_set<std::size_t> emitted_merges;
  for (const Op& op : g.ops()) {
    if (!op.schedulable()) continue;
    if (spec.fuse_elementwise &&
        (op.kind == OpKind::kRelu || op.kind == OpKind::kIdentity)) {
      continue;  // folded into the producer kernel
    }
    auto it = merged_into.find(op.id);
    if (it != merged_into.end()) {
      if (emitted_merges.insert(it->second).second) {
        for (KernelDesc& k :
             merged_stage_stream(g, merges[it->second], params)) {
          stream.push_back(std::move(k));
        }
      }
      continue;
    }
    stream.push_back(kernel_for_op(g, op.id, params));
  }

  result.latency_us = engine.makespan_us({&stream, 1});

  // Optimization cost model: autotuning measures `tuning_trials` candidate
  // tensor programs per kernel; each trial pays a compile+deploy overhead
  // (~0.5 s — this dominates, as in Ansor/AutoTVM) plus ~10 measured runs.
  // Substitution search costs a profile per considered merge. Expressed in
  // simulated GPU seconds.
  if (spec.tuning_trials > 0) {
    constexpr double kTrialOverheadS = 0.5;
    constexpr int kRunsPerTrial = 10;
    double cost_s = 0;
    for (const KernelDesc& k : stream) {
      cost_s += spec.tuning_trials *
                (kTrialOverheadS +
                 kRunsPerTrial * engine.kernel_latency_us(k) * 1e-6);
    }
    result.optimization_cost_s = cost_s;
  }
  if (spec.merge_substitution) {
    result.optimization_cost_s += 1e-6 * 50 * result.latency_us;
  }
  return result;
}

FrameworkResult run_nimble(const Graph& g, const DeviceSpec& device) {
  // AOT scheduling: the whole network is captured once into a device-side
  // graph, so per-kernel dispatch and per-stage synchronization nearly
  // disappear. The schedule itself is the latency-oblivious greedy one.
  DeviceSpec dev = device;
  dev.kernel_launch_us *= 0.15;
  dev.stage_sync_us *= 0.25;
  dev.stream_sync_us *= 0.25;
  Executor executor(g, ExecConfig{dev, KernelModelParams{}});
  FrameworkResult result;
  result.name = "Nimble";
  result.latency_us = executor.schedule_latency_us(greedy_schedule(g));
  // One capture pass over the network.
  result.optimization_cost_s = result.latency_us * 1e-6;
  return result;
}

}  // namespace ios::frameworks
