#include "place/placer.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "models/models.hpp"
#include "runtime/executor.hpp"

namespace ios {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Per-(item, class) data the plan builder needs beyond the recipe grid:
/// cumulative per-block-prefix latencies for split evaluation.
struct ClassProfile {
  double latency_us = 0;
  /// prefix_us[b] = latency of blocks [0, b) under this class's schedule
  /// (prefix_us[num_blocks] == latency_us).
  std::vector<double> prefix_us;
};

/// Activation bytes crossing each block boundary: cut_bytes[b] = output
/// bytes of ops in blocks [0, b) consumed by ops in blocks [b, n). Graph
/// inputs are host-fed and excluded (either segment device receives them
/// directly).
std::vector<std::int64_t> boundary_bytes(const Graph& g) {
  const int n = g.num_blocks();
  std::vector<std::int64_t> cut(static_cast<std::size_t>(n) + 1, 0);
  for (const Op& op : g.ops()) {
    if (!op.schedulable()) continue;
    int max_succ_block = -1;
    for (OpId s : g.succs(op.id)) {
      max_succ_block = std::max(max_succ_block, g.op(s).block);
    }
    // The op's output must be transferred across every cut b with
    // op.block < b <= max consumer block.
    for (int b = op.block + 1; b <= max_succ_block; ++b) {
      cut[static_cast<std::size_t>(b)] += g.output_bytes(op.id);
    }
  }
  return cut;
}

/// Sums each stage's latency into its block's slot and folds the result
/// into cumulative prefix sums.
ClassProfile profile_schedule(const Graph& g, const Schedule& schedule,
                              const DeviceSpec& device) {
  const Executor executor(g, ExecConfig{device, KernelModelParams{}});
  ClassProfile p;
  std::vector<double> per_block(static_cast<std::size_t>(g.num_blocks()), 0);
  for (const Stage& stage : schedule.stages) {
    const int block = g.op(stage.groups.front().ops.front()).block;
    per_block[static_cast<std::size_t>(block)] +=
        executor.stage_latency_us(stage);
  }
  p.prefix_us.assign(per_block.size() + 1, 0);
  for (std::size_t b = 0; b < per_block.size(); ++b) {
    p.prefix_us[b + 1] = p.prefix_us[b] + per_block[b];
  }
  p.latency_us = p.prefix_us.back();
  return p;
}

void validate_request(const PlacementRequest& request) {
  request.pool.validate();
  request.options.validate();
  if (request.workload.empty()) {
    throw std::invalid_argument("Placer: workload is empty");
  }
  for (const WorkloadItem& item : request.workload) {
    if (item.batch < 1) {
      throw std::invalid_argument("Placer: batch for '" + item.model +
                                  "' must be >= 1");
    }
    if (!(item.weight > 0)) {
      throw std::invalid_argument("Placer: weight for '" + item.model +
                                  "' must be > 0");
    }
  }
}

}  // namespace

const DeviceRecipe* PlacementResult::recipe_for(const std::string& model,
                                                int batch,
                                                const std::string& device)
    const {
  for (const DeviceRecipe& r : recipes) {
    if (r.model == model && r.batch == batch && r.device == device) return &r;
  }
  return nullptr;
}

PlacementResult Placer::place(const PlacementRequest& request) {
  validate_request(request);
  const std::size_t num_items = request.workload.size();
  const std::size_t num_classes = request.pool.classes.size();

  PlacementResult result;
  result.recipes.reserve(num_items * num_classes);

  // ---- recipe grid: every item optimized for every device class ---------
  // grid[i * num_classes + c]: prefix latencies for split evaluation.
  std::vector<ClassProfile> grid(num_items * num_classes);
  std::vector<std::vector<std::int64_t>> cuts(num_items);
  for (std::size_t i = 0; i < num_items; ++i) {
    const WorkloadItem& item = request.workload[i];
    const Graph g = models::build_model(item.model, item.batch);
    cuts[i] = boundary_bytes(g);
    for (std::size_t c = 0; c < num_classes; ++c) {
      const DeviceSpec& spec = request.pool.classes[c].spec;
      OptimizationRequest opt =
          OptimizationRequest::for_model(item.model, spec.name, item.batch);
      opt.options = request.options;
      opt.protocol = request.protocol;
      opt.profile_db = request.profile_db;
      opt.baselines.clear();  // placement needs latencies, not comparisons
      const OptimizationResult r = optimizer_.optimize(opt);
      ++(r.cache_hit ? result.cache_hits : result.optimizations);
      result.measurements += r.new_measurements;

      DeviceRecipe recipe;
      recipe.model = item.model;
      recipe.batch = item.batch;
      recipe.device = spec.name;
      recipe.latency_us = r.latency_us;
      recipe.recipe = r.recipe;
      recipe.stats = r.stats;
      result.recipes.push_back(std::move(recipe));

      grid[i * num_classes + c] = profile_schedule(g, r.schedule, spec);
    }
  }

  // ---- best pipeline split per item (load-independent) -------------------
  std::vector<std::optional<PipelineSplit>> splits(num_items);
  if (request.allow_splits && num_classes > 1) {
    for (std::size_t i = 0; i < num_items; ++i) {
      const int num_blocks = static_cast<int>(cuts[i].size()) - 1;
      PipelineSplit best;
      best.latency_us = kInf;
      for (std::size_t c1 = 0; c1 < num_classes; ++c1) {
        for (std::size_t c2 = 0; c2 < num_classes; ++c2) {
          if (c1 == c2) continue;  // same-class splits only add transfer
          const ClassProfile& p1 = grid[i * num_classes + c1];
          const ClassProfile& p2 = grid[i * num_classes + c2];
          for (int cut = 1; cut < num_blocks; ++cut) {
            const double first = p1.prefix_us[static_cast<std::size_t>(cut)];
            const double second =
                p2.latency_us - p2.prefix_us[static_cast<std::size_t>(cut)];
            const double transfer = request.pool.interconnect.transfer_us(
                cuts[i][static_cast<std::size_t>(cut)]);
            const double total = first + transfer + second;
            if (total < best.latency_us) {
              best.first_device = request.pool.classes[c1].spec.name;
              best.second_device = request.pool.classes[c2].spec.name;
              best.cut_block = cut;
              best.cut_bytes = cuts[i][static_cast<std::size_t>(cut)];
              best.first_us = first;
              best.transfer_us = transfer;
              best.second_us = second;
              best.latency_us = total;
            }
          }
        }
      }
      if (best.latency_us < kInf) splits[i] = best;
    }
  }

  // ---- greedy heterogeneous-makespan assignment --------------------------
  // Items are committed in descending work order (weight x best latency),
  // the LPT rule; each goes to the option minimizing its predicted
  // completion (committed per-instance load + its own service time).
  std::vector<std::size_t> order(num_items);
  for (std::size_t i = 0; i < num_items; ++i) order[i] = i;
  const auto item_work = [&](std::size_t i) {
    double best = kInf;
    for (std::size_t c = 0; c < num_classes; ++c) {
      best = std::min(best, grid[i * num_classes + c].latency_us);
    }
    if (splits[i]) best = std::min(best, splits[i]->latency_us);
    return request.workload[i].weight * best;
  };
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double wa = item_work(a), wb = item_work(b);
    if (wa != wb) return wa > wb;
    if (request.workload[a].model != request.workload[b].model) {
      return request.workload[a].model < request.workload[b].model;
    }
    return request.workload[a].batch < request.workload[b].batch;
  });

  std::vector<double> load(num_classes, 0);
  const auto class_index = [&](const std::string& device) {
    for (std::size_t c = 0; c < num_classes; ++c) {
      if (request.pool.classes[c].spec.name == device) return c;
    }
    throw std::logic_error("placement: unknown class " + device);
  };

  PlacementPlan& plan = result.plan;
  plan.assignments.resize(num_items);
  for (const std::size_t i : order) {
    const WorkloadItem& item = request.workload[i];
    Assignment a;
    a.model = item.model;
    a.batch = item.batch;
    a.weight = item.weight;

    // Best single class by predicted completion; ties prefer the lower
    // service latency, then pool declaration order.
    std::size_t best_c = 0;
    double best_completion = kInf;
    double best_single = kInf;
    for (std::size_t c = 0; c < num_classes; ++c) {
      const double lat = grid[i * num_classes + c].latency_us;
      const double completion =
          (load[c] + item.weight * lat) / request.pool.classes[c].count;
      best_single = std::min(best_single, lat);
      const double cur = grid[i * num_classes + best_c].latency_us;
      if (completion < best_completion ||
          (completion == best_completion && lat < cur)) {
        best_completion = completion;
        best_c = c;
      }
    }
    a.best_single_us = best_single;

    // A split competes only when its end-to-end latency strictly beats
    // every single device; it is then weighed on completion time like any
    // other option (both segment classes must absorb their share).
    bool use_split = false;
    if (splits[i] && splits[i]->latency_us < best_single) {
      const std::size_t c1 = class_index(splits[i]->first_device);
      const std::size_t c2 = class_index(splits[i]->second_device);
      const double completion = std::max(
          (load[c1] + item.weight * splits[i]->first_us) /
              request.pool.classes[c1].count,
          (load[c2] + item.weight * splits[i]->second_us) /
              request.pool.classes[c2].count);
      use_split = completion < best_completion;
    }

    if (use_split) {
      const PipelineSplit& s = *splits[i];
      a.device = s.first_device + "|" + s.second_device;
      a.service_us = s.latency_us;
      a.split = s;
      load[class_index(s.first_device)] += item.weight * s.first_us;
      load[class_index(s.second_device)] += item.weight * s.second_us;
    } else {
      a.device = request.pool.classes[best_c].spec.name;
      a.service_us = grid[i * num_classes + best_c].latency_us;
      load[best_c] += item.weight * a.service_us;
    }
    plan.weighted_latency_us += item.weight * a.service_us;
    plan.assignments[i] = std::move(a);
  }

  // ---- load picture -------------------------------------------------------
  for (std::size_t c = 0; c < num_classes; ++c) {
    plan.makespan_us = std::max(
        plan.makespan_us, load[c] / request.pool.classes[c].count);
  }
  for (std::size_t c = 0; c < num_classes; ++c) {
    ClassLoad cl;
    cl.device = request.pool.classes[c].spec.name;
    cl.count = request.pool.classes[c].count;
    cl.load_us = load[c];
    cl.utilization = plan.makespan_us > 0
                         ? (load[c] / cl.count) / plan.makespan_us
                         : 0;
    plan.loads.push_back(std::move(cl));
  }
  return result;
}

JsonValue placement_to_json(const PlacementResult& result) {
  JsonValue recipes = JsonValue::array();
  for (const DeviceRecipe& r : result.recipes) {
    JsonValue entry = JsonValue::object();
    entry.set("model", r.model);
    entry.set("batch", r.batch);
    entry.set("device", r.device);
    entry.set("latency_us", r.latency_us);
    recipes.push_back(std::move(entry));
  }

  JsonValue assignments = JsonValue::array();
  for (const Assignment& a : result.plan.assignments) {
    JsonValue entry = JsonValue::object();
    entry.set("model", a.model);
    entry.set("batch", a.batch);
    entry.set("weight", a.weight);
    entry.set("device", a.device);
    entry.set("service_us", a.service_us);
    entry.set("best_single_us", a.best_single_us);
    if (a.split) {
      JsonValue split = JsonValue::object();
      split.set("first_device", a.split->first_device);
      split.set("second_device", a.split->second_device);
      split.set("cut_block", a.split->cut_block);
      split.set("cut_bytes", a.split->cut_bytes);
      split.set("first_us", a.split->first_us);
      split.set("transfer_us", a.split->transfer_us);
      split.set("second_us", a.split->second_us);
      entry.set("split", std::move(split));
    }
    assignments.push_back(std::move(entry));
  }

  JsonValue loads = JsonValue::array();
  for (const ClassLoad& l : result.plan.loads) {
    JsonValue entry = JsonValue::object();
    entry.set("device", l.device);
    entry.set("count", l.count);
    entry.set("load_us", l.load_us);
    entry.set("utilization", l.utilization);
    loads.push_back(std::move(entry));
  }

  JsonValue plan = JsonValue::object();
  plan.set("assignments", std::move(assignments));
  plan.set("loads", std::move(loads));
  plan.set("makespan_us", result.plan.makespan_us);
  plan.set("weighted_latency_us", result.plan.weighted_latency_us);

  JsonValue root = JsonValue::object();
  root.set("recipes", std::move(recipes));
  root.set("plan", std::move(plan));
  root.set("optimizations", result.optimizations);
  root.set("cache_hits", result.cache_hits);
  root.set("measurements", result.measurements);
  return root;
}

}  // namespace ios
