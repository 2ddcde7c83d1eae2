#include "fleet/planner.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>

namespace ios::fleet {

FleetPlan FleetPlanner::plan(const FleetPlanRequest& request) {
  const auto wall_start = std::chrono::steady_clock::now();
  if (request.topology.devices.empty()) {
    throw std::invalid_argument("fleet plan: the topology has no devices");
  }
  if (request.replicas < 1) {
    throw std::invalid_argument("fleet plan: replicas must be >= 1");
  }

  FleetPlan plan;
  PlacementRequest class_request;
  class_request.pool = request.topology.pool;
  class_request.workload = request.workload;
  class_request.options = request.options;
  class_request.protocol = request.protocol;
  class_request.profile_db = request.profile_db;
  class_request.allow_splits = request.allow_splits;
  plan.placement = placer_.place(class_request);

  // Workers of each class, ascending id (devices are already grouped by
  // class in id order).
  const std::vector<DeviceClass>& classes = request.topology.pool.classes;
  std::vector<std::vector<int>> class_workers(classes.size());
  for (const FleetDevice& device : request.topology.devices) {
    class_workers[static_cast<std::size_t>(device.class_index)].push_back(
        device.id);
  }

  // Anti-affinity greedy: per replica, prefer a node the item does not yet
  // occupy, then a rack it does not occupy, then the least committed load,
  // then the lowest worker id. Deterministic.
  std::vector<double> committed(request.topology.devices.size(), 0.0);
  plan.min_distinct_nodes = std::numeric_limits<int>::max();
  plan.min_distinct_racks = std::numeric_limits<int>::max();
  bool any_replicated = false;
  for (std::size_t i = 0; i < plan.placement.plan.assignments.size(); ++i) {
    const Assignment& assignment = plan.placement.plan.assignments[i];
    // A pipeline split's first segment anchors the replica (its display
    // device "a|b" is not a pool class).
    const std::string& class_name =
        assignment.split ? assignment.split->first_device : assignment.device;
    std::size_t cls = classes.size();
    for (std::size_t c = 0; c < classes.size(); ++c) {
      if (classes[c].spec.name == class_name) {
        cls = c;
        break;
      }
    }
    const std::vector<int>& candidates = class_workers.at(cls);
    const int replicas =
        std::min<int>(request.replicas, static_cast<int>(candidates.size()));

    std::vector<int> chosen;
    std::vector<int> item_nodes, item_racks;  // occupied by this item
    for (int r = 0; r < replicas; ++r) {
      int best = -1;
      int best_node_hits = 0, best_rack_hits = 0;
      double best_load = 0;
      for (const int worker : candidates) {
        if (std::find(chosen.begin(), chosen.end(), worker) != chosen.end()) {
          continue;
        }
        const FleetDevice& device =
            request.topology.devices[static_cast<std::size_t>(worker)];
        const int node_hits = static_cast<int>(
            std::count(item_nodes.begin(), item_nodes.end(), device.node));
        const int rack_hits = static_cast<int>(
            std::count(item_racks.begin(), item_racks.end(), device.rack));
        const double load = committed[static_cast<std::size_t>(worker)];
        const bool better =
            best < 0 || node_hits < best_node_hits ||
            (node_hits == best_node_hits &&
             (rack_hits < best_rack_hits ||
              (rack_hits == best_rack_hits && load < best_load)));
        if (better) {
          best = worker;
          best_node_hits = node_hits;
          best_rack_hits = rack_hits;
          best_load = load;
        }
      }
      const FleetDevice& device =
          request.topology.devices[static_cast<std::size_t>(best)];
      chosen.push_back(best);
      item_nodes.push_back(device.node);
      item_racks.push_back(device.rack);
      committed[static_cast<std::size_t>(best)] +=
          assignment.weight * assignment.service_us / replicas;
      plan.replicas.push_back(ReplicaPlacement{
          assignment.model, assignment.batch, static_cast<int>(i), best,
          device.node, device.rack, classes[cls].spec.name});
    }

    if (replicas >= 2) {
      any_replicated = true;
      std::sort(item_nodes.begin(), item_nodes.end());
      std::sort(item_racks.begin(), item_racks.end());
      const int distinct_nodes = static_cast<int>(
          std::unique(item_nodes.begin(), item_nodes.end()) -
          item_nodes.begin());
      const int distinct_racks = static_cast<int>(
          std::unique(item_racks.begin(), item_racks.end()) -
          item_racks.begin());
      plan.min_distinct_nodes =
          std::min(plan.min_distinct_nodes, distinct_nodes);
      plan.min_distinct_racks =
          std::min(plan.min_distinct_racks, distinct_racks);
    }
  }
  if (!any_replicated) {
    plan.min_distinct_nodes = 0;
    plan.min_distinct_racks = 0;
  }

  plan.plan_wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  return plan;
}

JsonValue fleet_plan_to_json(const FleetTopology& topology,
                             const FleetPlan& plan) {
  JsonValue root = JsonValue::object();

  JsonValue topo = JsonValue::object();
  topo.set("spec", topology.spec);
  topo.set("devices", topology.total_devices());
  topo.set("nodes", topology.num_nodes);
  topo.set("racks", topology.num_racks);
  JsonValue classes = JsonValue::array();
  for (const DeviceClass& c : topology.pool.classes) {
    JsonValue entry = JsonValue::object();
    entry.set("device", c.spec.name);
    entry.set("count", c.count);
    classes.push_back(std::move(entry));
  }
  topo.set("classes", std::move(classes));
  root.set("topology", std::move(topo));

  root.set("placement", placement_to_json(plan.placement));

  JsonValue replicas = JsonValue::array();
  for (const ReplicaPlacement& r : plan.replicas) {
    JsonValue entry = JsonValue::object();
    entry.set("model", r.model);
    entry.set("batch", r.batch);
    entry.set("item", r.item);
    entry.set("worker", r.worker);
    entry.set("node", r.node);
    entry.set("rack", r.rack);
    entry.set("device", r.device);
    replicas.push_back(std::move(entry));
  }
  root.set("replicas", std::move(replicas));

  JsonValue spread = JsonValue::object();
  spread.set("min_distinct_nodes", plan.min_distinct_nodes);
  spread.set("min_distinct_racks", plan.min_distinct_racks);
  root.set("spread", std::move(spread));

  root.set("plan_wall_ms", plan.plan_wall_ms);
  return root;
}

}  // namespace ios::fleet
