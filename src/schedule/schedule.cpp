#include "schedule/schedule.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "util/hash.hpp"

namespace ios {

const char* stage_strategy_name(StageStrategy s) {
  return s == StageStrategy::kConcurrent ? "concurrent" : "merge";
}

std::uint64_t stage_fingerprint(const Stage& stage) {
  // Tags match the historical CostModel::stage_key seeds, so fingerprints
  // (and the noise streams derived from them) are stable across versions.
  const std::uint64_t tag =
      stage.strategy == StageStrategy::kMerge ? 0x9e37u : 0x51edu;
  return fingerprint_groups(tag, stage.groups);
}

std::vector<OpId> Stage::ops() const {
  std::vector<OpId> out;
  for (const Group& g : groups) {
    out.insert(out.end(), g.ops.begin(), g.ops.end());
  }
  return out;
}

int Stage::num_ops() const {
  int n = 0;
  for (const Group& g : groups) n += static_cast<int>(g.ops.size());
  return n;
}

int Schedule::num_ops() const {
  int n = 0;
  for (const Stage& s : stages) n += s.num_ops();
  return n;
}

std::string Schedule::to_string(const Graph& g) const {
  std::ostringstream out;
  out << "schedule with " << stages.size() << " stages\n";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const Stage& stage = stages[i];
    out << "  stage " << i + 1 << " [" << stage_strategy_name(stage.strategy)
        << "]";
    for (const Group& grp : stage.groups) {
      out << " {";
      for (std::size_t j = 0; j < grp.ops.size(); ++j) {
        if (j) out << ", ";
        out << g.op(grp.ops[j]).name;
      }
      out << "}";
    }
    out << "\n";
  }
  return out.str();
}

std::vector<Group> partition_groups(const Graph& g,
                                    std::span<const OpId> ops) {
  std::unordered_map<OpId, int> component;
  component.reserve(ops.size());
  // Union-find over the ops, joining endpoints of edges internal to `ops`.
  std::vector<int> parent(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    parent[i] = static_cast<int>(i);
    component[ops[i]] = static_cast<int>(i);
  }
  auto find = [&](int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };
  auto unite = [&](int a, int b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[static_cast<std::size_t>(b)] = a;
  };
  for (std::size_t i = 0; i < ops.size(); ++i) {
    for (OpId pred : g.preds(ops[i])) {
      auto it = component.find(pred);
      if (it != component.end()) unite(static_cast<int>(i), it->second);
    }
  }

  // Bucket ops by root, preserving relative (topological) order: op ids in a
  // Graph are assigned in insertion order, so sorting by id is a topological
  // order.
  std::vector<OpId> sorted(ops.begin(), ops.end());
  std::sort(sorted.begin(), sorted.end());

  std::unordered_map<int, std::size_t> root_to_group;
  std::vector<Group> groups;
  for (OpId id : sorted) {
    const int root = find(component[id]);
    auto [it, inserted] = root_to_group.try_emplace(root, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].ops.push_back(id);
  }
  return groups;
}

void validate_schedule(const Graph& g, const Schedule& q) {
  std::unordered_map<OpId, int> stage_of;       // op -> stage index
  std::unordered_map<OpId, std::size_t> group_of;  // op -> group index
  std::unordered_map<OpId, std::size_t> pos_in_group;

  for (std::size_t si = 0; si < q.stages.size(); ++si) {
    const Stage& stage = q.stages[si];
    if (stage.groups.empty()) {
      throw std::runtime_error("stage " + std::to_string(si) + " is empty");
    }
    for (std::size_t gi = 0; gi < stage.groups.size(); ++gi) {
      const Group& grp = stage.groups[gi];
      if (grp.ops.empty()) {
        throw std::runtime_error("empty group in stage " + std::to_string(si));
      }
      for (std::size_t pi = 0; pi < grp.ops.size(); ++pi) {
        const OpId id = grp.ops[pi];
        if (id < 0 || id >= g.num_ops()) {
          throw std::runtime_error("op id out of range: " +
                                   std::to_string(id) + " (graph has " +
                                   std::to_string(g.num_ops()) + " ops)");
        }
        if (!g.op(id).schedulable()) {
          throw std::runtime_error("input op scheduled: " + g.op(id).name);
        }
        if (!stage_of.emplace(id, static_cast<int>(si)).second) {
          throw std::runtime_error("op scheduled twice: " + g.op(id).name);
        }
        group_of[id] = gi;
        pos_in_group[id] = pi;
      }
    }
  }

  int expected = 0;
  for (const Op& op : g.ops()) {
    if (op.schedulable()) ++expected;
  }
  if (q.num_ops() != expected) {
    throw std::runtime_error("schedule covers " + std::to_string(q.num_ops()) +
                             " ops, graph has " + std::to_string(expected));
  }

  for (const Op& op : g.ops()) {
    if (!op.schedulable()) continue;
    for (OpId pred : op.inputs) {
      if (!g.op(pred).schedulable()) continue;  // graph input
      if (stage_of[pred] > stage_of[op.id]) {
        throw std::runtime_error("dependency violated: " + g.op(pred).name +
                                 " scheduled after " + op.name);
      }
      if (stage_of[pred] == stage_of[op.id]) {
        if (group_of[pred] != group_of[op.id]) {
          throw std::runtime_error(
              "same-stage dependency across groups: " + g.op(pred).name +
              " -> " + op.name);
        }
        if (pos_in_group[pred] >= pos_in_group[op.id]) {
          throw std::runtime_error("group order violates dependency: " +
                                   g.op(pred).name + " -> " + op.name);
        }
      }
    }
  }
}

}  // namespace ios
