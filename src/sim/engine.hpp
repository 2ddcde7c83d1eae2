#pragma once
// Event-driven multi-stream GPU execution simulator.
//
// This is the reproduction's substitute for running kernels through cuDNN on
// real CUDA streams (Section 5 of the paper). The model:
//
//  * Each stream executes its kernels in order; a kernel becomes *active*
//    `kernel_launch_us` after its predecessor in the stream finishes.
//  * Active kernels share the device. Kernel k demands `warps_k` resident
//    warps; if total demand exceeds the device's warp slots, allocations are
//    scaled proportionally (the hardware work distributor interleaves thread
//    blocks from concurrent grids).
//  * Device-level throughput saturates with total resident warps A:
//        eff_c(A) = 1 - exp(-A / (slots * compute_sat_frac))
//        eff_m(A) = 1 - exp(-A / (slots * memory_sat_frac))
//    so a single small kernel leaves the device under-utilized (the paper's
//    Figures 1-2) while concurrent kernels raise utilization until the
//    slots saturate, after which they only contend (the paper's "resource
//    contention" effect that penalizes the greedy schedule).
//  * Kernel k's instantaneous progress is roofline-limited:
//        rate_k = min( P * eff_c(A) * share_k * efficiency_k / flops_k,
//                      BW * eff_m(A) * share_k / bytes_k )
//    with share_k = alloc_k / A. Compute- and memory-bound kernels therefore
//    contend for the right resource.
//
// The simulator is deterministic. One event loop serves two entries:
//
//  * run() returns the makespan plus the full kernel timeline and a
//    resident-warp trace (Chrome-trace export, the paper's Figure 8).
//  * makespan_us() returns only the makespan, bit-identical to
//    run().makespan_us. It records no trace, copies no kernel names, and
//    keeps its per-call state on the stack for up to kInlineStreams
//    streams. This is the profiling path: every cost-model miss of the DP
//    search is one call.

#include <span>

#include "sim/device.hpp"
#include "sim/kernel.hpp"

namespace ios {

/// One kernel stream read in place: `size` kernels, kernel i being
/// `table[index[i]]`, or `table[i]` when `index` is null. The gather form
/// lets a caller simulate streams of op ids against a prebuilt kernel
/// table without copying a KernelDesc. A trivial aggregate (build it with
/// braces), so the engine's per-call arrays of it cost nothing to declare.
struct StreamView {
  const KernelDesc* table;
  const int* index;
  int size;

  const KernelDesc& operator[](int i) const {
    return table[index != nullptr ? index[i] : i];
  }
};

class Engine {
 public:
  /// Streams whose per-call state makespan_us() keeps on the stack; more
  /// streams fall back to the heap. A block has at most 64 ops, so every
  /// stage the DP search measures fits.
  static constexpr int kInlineStreams = 64;

  explicit Engine(DeviceSpec spec) : spec_(std::move(spec)) {}

  const DeviceSpec& device() const { return spec_; }

  /// Simulates the concurrent execution of the given streams starting at
  /// t = 0. Returns the makespan and traces.
  SimResult run(const std::vector<KernelStream>& streams) const;

  /// Makespan of the given streams, bit-identical to
  /// run(streams).makespan_us, without recording any trace.
  double makespan_us(std::span<const KernelStream> streams) const;

  /// Makespan of `num_streams` streams where stream s is `stream_of(s)`
  /// (a callable returning a StreamView). Same result as the overload
  /// above on the equivalent streams; heap-free for up to kInlineStreams
  /// streams.
  template <typename StreamOf>
  double makespan_us(int num_streams, const StreamOf& stream_of) const {
    return simulate(source_of(num_streams, stream_of), nullptr);
  }

  /// Latency of a single kernel executed alone (including launch overhead).
  double kernel_latency_us(const KernelDesc& k) const;

 private:
  /// The streams of one call: `count` streams, stream s is get(ctx, s).
  /// A plain function pointer keeps the event loop out of this header.
  struct StreamSource {
    int count = 0;
    const void* ctx = nullptr;
    StreamView (*get)(const void* ctx, int s) = nullptr;
  };

  template <typename StreamOf>
  static StreamSource source_of(int num_streams, const StreamOf& stream_of) {
    return {num_streams, &stream_of, [](const void* ctx, int s) {
              return StreamView((*static_cast<const StreamOf*>(ctx))(s));
            }};
  }

  /// The event loop behind every entry. Records the timeline and the warp
  /// trace into `trace` when it is non-null; returns the makespan.
  double simulate(StreamSource source, SimResult* trace) const;

  DeviceSpec spec_;
};

}  // namespace ios
