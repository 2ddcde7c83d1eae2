#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <type_traits>

namespace ios {

double SimResult::warp_time_integral() const {
  double integral = 0;
  for (std::size_t i = 0; i < warp_trace.size(); ++i) {
    const double t0 = warp_trace[i].t_us;
    const double t1 =
        i + 1 < warp_trace.size() ? warp_trace[i + 1].t_us : makespan_us;
    integral += warp_trace[i].active_warps * (t1 - t0);
  }
  return integral;
}

double SimResult::mean_active_warps() const {
  return makespan_us > 0 ? warp_time_integral() / makespan_us : 0.0;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTimeEps = 1e-9;  // microsecond-scale epsilon

// The per-call state below is trivially constructible on purpose: the
// inline arrays of PerStream are left uninitialized and only the first
// `n` slots are ever written, so a call pays for its own streams only.

struct StreamState {
  StreamView kernels;
  int next;            // index of the stream's next kernel
  double next_launch;  // when that kernel activates; kInf while its
                       // predecessor runs or once the stream is exhausted
};

struct ActiveKernel {
  const KernelDesc* kernel;
  int stream;
  int index;         // position within its stream
  double start_us;   // activation time
  double remaining;  // fraction of the kernel's work left
  double rate;       // fraction per microsecond (recomputed per epoch)
};

/// `n` slots of per-call state: on the stack up to Engine::kInlineStreams,
/// on the heap beyond.
template <typename T>
class PerStream {
  static_assert(std::is_trivially_default_constructible_v<T>);

 public:
  explicit PerStream(int n) {
    if (n > Engine::kInlineStreams) {
      heap_ = std::make_unique_for_overwrite<T[]>(static_cast<std::size_t>(n));
    }
  }
  T* data() { return heap_ ? heap_.get() : inline_; }

 private:
  T inline_[Engine::kInlineStreams];
  std::unique_ptr<T[]> heap_;
};

double saturation(double warps, double slots, double frac) {
  if (warps <= 0) return 0;
  return 1.0 - std::exp(-warps / (slots * frac));
}

/// Stream s of `streams`, read in place.
auto views_of(std::span<const KernelStream> streams) {
  return [streams](int s) {
    const KernelStream& k = streams[static_cast<std::size_t>(s)];
    return StreamView{k.data(), nullptr, static_cast<int>(k.size())};
  };
}

}  // namespace

SimResult Engine::run(const std::vector<KernelStream>& streams) const {
  SimResult result;
  const auto view = views_of(streams);
  result.makespan_us =
      simulate(source_of(static_cast<int>(streams.size()), view), &result);
  return result;
}

double Engine::makespan_us(std::span<const KernelStream> streams) const {
  return makespan_us(static_cast<int>(streams.size()), views_of(streams));
}

double Engine::kernel_latency_us(const KernelDesc& k) const {
  return makespan_us(1, [&](int) { return StreamView{&k, nullptr, 1}; });
}

double Engine::simulate(StreamSource source, SimResult* trace) const {
  const double slots = spec_.total_warp_slots();
  const double peak = spec_.peak_flops_per_us();
  const double bw = spec_.bytes_per_us();

  const int num_streams = source.count;
  PerStream<StreamState> stream_state(num_streams);
  StreamState* streams = stream_state.data();
  int total_kernels = 0;
  for (int s = 0; s < num_streams; ++s) {
    StreamState& st = streams[s];
    st.kernels = source.get(source.ctx, s);
    st.next = 0;
    st.next_launch = st.kernels.size > 0 ? spec_.kernel_launch_us : kInf;
    total_kernels += st.kernels.size;
  }

  // At most one kernel per stream is active at a time.
  PerStream<ActiveKernel> active_state(num_streams);
  ActiveKernel* active = active_state.data();
  int num_active = 0;
  double now = 0;

  auto record_warp_segment = [&](double t) {
    double warps = 0;
    for (int i = 0; i < num_active; ++i) warps += active[i].kernel->warps;
    warps = std::min(warps, slots);
    std::vector<WarpTraceEntry>& segments = trace->warp_trace;
    if (!segments.empty() && segments.back().active_warps == warps) {
      return;  // merge identical adjacent segments
    }
    segments.push_back({t, warps});
  };

  auto recompute_rates = [&]() {
    // Proportional warp allocation under the slot cap.
    double demand = 0;
    for (int i = 0; i < num_active; ++i) demand += active[i].kernel->warps;
    const double scale = demand > slots ? slots / demand : 1.0;
    const double total_alloc = std::min(demand, slots);
    const double eff_c =
        saturation(total_alloc, slots, spec_.compute_sat_frac);
    const double eff_m = saturation(total_alloc, slots, spec_.memory_sat_frac);
    // Shared-resource interference between co-resident kernels (Section 7.2
    // of the paper): grows with occupancy, so concurrency is nearly free on
    // an under-utilized device but costly when the batch already fills it.
    const double occupancy = total_alloc / slots;
    const double n_active = static_cast<double>(num_active);
    const double contention =
        1.0 + spec_.mem_contention_coef * (n_active - 1.0) * occupancy *
                  occupancy;
    for (int i = 0; i < num_active; ++i) {
      ActiveKernel& a = active[i];
      const KernelDesc& k = *a.kernel;
      const double alloc = k.warps * scale;
      const double share = total_alloc > 0 ? alloc / total_alloc : 0;
      double rate = kInf;
      if (k.flops > 0) {
        rate = std::min(rate, peak * eff_c * share * k.efficiency / k.flops);
      }
      if (k.bytes > 0) {
        rate = std::min(rate, bw * eff_m * share / (k.bytes * contention));
      }
      a.rate = rate;
    }
  };

  // Retires active[i] at `now` (swap-remove, so the survivors' order is the
  // one every rate sum above depends on) and schedules its stream's next
  // launch.
  int completed = 0;
  auto retire = [&](int i) {
    const ActiveKernel& a = active[i];
    if (trace != nullptr) {
      trace->timeline.push_back(
          {a.kernel->op, a.kernel->name, a.stream, a.start_us, now});
    }
    StreamState& st = streams[a.stream];
    st.next = a.index + 1;
    if (st.next < st.kernels.size) {
      st.next_launch = now + spec_.kernel_launch_us;
    }
    active[i] = active[--num_active];
    ++completed;
  };

  while (completed < total_kernels) {
    // Next event: earliest kernel completion or stream launch.
    double next_event = kInf;
    for (int i = 0; i < num_active; ++i) {
      const ActiveKernel& a = active[i];
      if (a.rate <= 0) {
        throw std::runtime_error("simulator stall: kernel has zero rate");
      }
      next_event = std::min(next_event, now + a.remaining / a.rate);
    }
    for (int s = 0; s < num_streams; ++s) {
      next_event = std::min(next_event, streams[s].next_launch);
    }
    assert(next_event < kInf && next_event >= now - kTimeEps);
    next_event = std::max(next_event, now);

    // Advance active kernels to the event time.
    const double dt = next_event - now;
    for (int i = 0; i < num_active; ++i) {
      active[i].remaining -= active[i].rate * dt;
    }
    now = next_event;

    // Retire finished kernels and schedule their stream's next launch.
    bool changed = false;
    for (int i = 0; i < num_active;) {
      const ActiveKernel& a = active[i];
      if (a.remaining <= a.rate * kTimeEps + 1e-12) {
        retire(i);
        changed = true;
      } else {
        ++i;
      }
    }

    // Activate newly launched kernels.
    for (int s = 0; s < num_streams; ++s) {
      StreamState& st = streams[s];
      if (st.next_launch <= now + kTimeEps) {
        const KernelDesc& k = st.kernels[st.next];
        // Zero-work kernels (pure bookkeeping) complete instantly: they
        // start with no work left and are retired just below.
        active[num_active++] = ActiveKernel{
            &k, s, st.next, now, (k.flops <= 0 && k.bytes <= 0) ? 0.0 : 1.0,
            0};
        st.next_launch = kInf;
        changed = true;
      }
    }

    if (changed) {
      // Rates are computed once, after the zero-work retirements below:
      // nothing before that reads them.
      if (trace != nullptr) record_warp_segment(now);
      // Instantly retire zero-work kernels activated above.
      for (int i = 0; i < num_active;) {
        if (active[i].remaining <= 0) {
          retire(i);
        } else {
          ++i;
        }
      }
      recompute_rates();
      if (trace != nullptr) record_warp_segment(now);
    }
  }
  return now;
}

}  // namespace ios
