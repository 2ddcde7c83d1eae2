#include "runtime/executor.hpp"

#include <stdexcept>

namespace ios {

KernelStream merged_stage_stream(const Graph& g, const MergeInfo& info,
                                 const KernelModelParams& params) {
  KernelStream stream;

  const Op& shared = g.op(info.shared_input);
  const Conv2dAttrs& m = info.merged_attrs;
  const Op& first = g.op(info.ops[0]);
  const int oh = first.output.h;
  const int ow = first.output.w;
  const int n = first.output.n;

  KernelDesc conv;
  conv.name = "merged_conv";
  const double out_elems =
      static_cast<double>(n) * m.out_channels * oh * ow;
  conv.flops = 2.0 * out_elems * shared.output.c * m.kh * m.kw;
  // Key benefit of merging (Section 3): the shared input is read once
  // instead of once per operator.
  const double weight_bytes =
      4.0 * m.out_channels * shared.output.c * m.kh * m.kw;
  conv.bytes = static_cast<double>(shared.output.bytes()) + weight_bytes +
               out_elems * 4.0;
  conv.warps = std::max(1.0, out_elems / (32.0 * params.elems_per_thread));
  conv.efficiency = params.conv_efficiency;
  stream.push_back(conv);

  for (OpId id : info.ops) {
    const Op& op = g.op(id);
    // Split elision: when every consumer is a concat, the consumer can read
    // the channel slice straight out of the merged buffer — materializing
    // the split would be pure waste. This is what makes merging profitable
    // for branches that end in a concat (SqueezeNet fire modules, the
    // Inception-E 1x3/3x1 pairs of the paper's Figure 10).
    bool consumers_are_concats = !g.succs(id).empty();
    for (OpId c : g.succs(id)) {
      if (g.op(c).kind != OpKind::kConcat) {
        consumers_are_concats = false;
        break;
      }
    }
    if (consumers_are_concats) continue;

    KernelDesc split;
    split.op = id;
    split.name = "split_" + op.name;
    split.flops = 0;
    split.bytes = 2.0 * static_cast<double>(op.output.bytes());
    split.warps = std::max(
        1.0, static_cast<double>(op.output.numel()) /
                 (32.0 * params.elems_per_thread));
    split.efficiency = params.memop_efficiency;
    stream.push_back(split);
  }
  return stream;
}

Executor::Executor(const Graph& g, ExecConfig cfg)
    : graph_(g),
      engine_(std::move(cfg.device)),
      kparams_(cfg.kernel_params),
      kernels_(static_cast<std::size_t>(g.num_ops())) {
  for (const Op& op : g.ops()) {
    if (op.schedulable()) {
      kernels_[static_cast<std::size_t>(op.id)] =
          kernel_for_op(g, op.id, kparams_);
    }
  }
}

std::vector<KernelStream> Executor::stage_streams(const Stage& stage) const {
  std::vector<KernelStream> streams;
  if (stage.strategy == StageStrategy::kMerge) {
    const std::vector<OpId> ops = stage.ops();
    const auto info = analyze_merge(graph_, ops);
    if (!info) {
      throw std::runtime_error("merge stage is not mergeable");
    }
    streams.push_back(merged_stage_stream(graph_, *info, kparams_));
    return streams;
  }
  streams.reserve(stage.groups.size());
  for (const Group& grp : stage.groups) {
    KernelStream stream;
    stream.reserve(grp.ops.size());
    for (OpId id : grp.ops) {
      stream.push_back(kernels_[static_cast<std::size_t>(id)]);
    }
    streams.push_back(std::move(stream));
  }
  return streams;
}

double Executor::stage_latency_us(const Stage& stage) const {
  if (stage.strategy == StageStrategy::kMerge) {
    // One stream: the stacked conv and its splits, never synchronized.
    return engine_.makespan_us(stage_streams(stage));
  }
  const std::size_t num_streams = stage.groups.size();
  double latency =
      engine_.makespan_us(static_cast<int>(num_streams), [&](int s) {
        const Group& grp = stage.groups[static_cast<std::size_t>(s)];
        return StreamView{kernels_.data(), grp.ops.data(),
                          static_cast<int>(grp.ops.size())};
      });
  if (num_streams > 1) {
    const DeviceSpec& dev = engine_.device();
    latency += dev.stage_sync_us +
               dev.stream_sync_us * static_cast<double>(num_streams - 1);
  }
  return latency;
}

double Executor::schedule_latency_us(const Schedule& q) const {
  double total = 0;
  for (const Stage& stage : q.stages) total += stage_latency_us(stage);
  return total;
}

SimResult Executor::run_schedule(const Schedule& q) const {
  SimResult out;
  double offset = 0;
  for (const Stage& stage : q.stages) {
    const auto streams = stage_streams(stage);
    SimResult r = engine_.run(streams);
    for (KernelTiming t : r.timeline) {
      t.start_us += offset;
      t.end_us += offset;
      out.timeline.push_back(std::move(t));
    }
    for (WarpTraceEntry e : r.warp_trace) {
      e.t_us += offset;
      out.warp_trace.push_back(e);
    }
    offset += r.makespan_us;
    if (streams.size() > 1) {
      // Synchronization gap: no kernels resident.
      out.warp_trace.push_back({offset, 0});
      const DeviceSpec& dev = engine_.device();
      offset += dev.stage_sync_us +
                dev.stream_sync_us * static_cast<double>(streams.size() - 1);
    }
  }
  out.makespan_us = offset;
  return out;
}

}  // namespace ios
