#include "core/block_dag.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <unordered_map>

#include "util/flat_map.hpp"
#include "util/hash.hpp"

namespace ios {

BlockDag::BlockDag(const Graph& g, std::span<const OpId> block_ops) {
  n_ = static_cast<int>(block_ops.size());
  if (n_ > 64) {
    throw std::invalid_argument(
        "block has more than 64 operators; split it into smaller blocks");
  }
  ops_.assign(block_ops.begin(), block_ops.end());
  std::sort(ops_.begin(), ops_.end());  // id order == topological order

  std::unordered_map<OpId, int> local;
  for (int i = 0; i < n_; ++i) local[ops_[static_cast<std::size_t>(i)]] = i;

  succ_.assign(static_cast<std::size_t>(n_), Set64{});
  pred_.assign(static_cast<std::size_t>(n_), Set64{});
  adj_.assign(static_cast<std::size_t>(n_), Set64{});
  for (int i = 0; i < n_; ++i) {
    for (OpId p : g.preds(ops_[static_cast<std::size_t>(i)])) {
      auto it = local.find(p);
      if (it == local.end()) continue;  // producer in an earlier block
      const int j = it->second;
      succ_[static_cast<std::size_t>(j)].insert(i);
      pred_[static_cast<std::size_t>(i)].insert(j);
      adj_[static_cast<std::size_t>(i)].insert(j);
      adj_[static_cast<std::size_t>(j)].insert(i);
    }
  }
}

int BlockDag::local_of(OpId id) const {
  const auto it = std::lower_bound(ops_.begin(), ops_.end(), id);
  if (it == ops_.end() || *it != id) {
    throw std::out_of_range("op not in block");
  }
  return static_cast<int>(it - ops_.begin());
}

std::vector<OpId> BlockDag::to_ops(Set64 s) const {
  std::vector<OpId> out;
  out.reserve(static_cast<std::size_t>(s.size()));
  for (int i : s) out.push_back(ops_[static_cast<std::size_t>(i)]);
  return out;
}

void BlockDag::rec_endings(std::span<const int> rev_topo, std::size_t pos,
                           Set64 s, Set64 chosen, std::vector<Set64>& comps,
                           int max_ops, int max_group_ops,
                           const std::function<void(Set64)>& f) const {
  if (pos == rev_topo.size()) {
    if (!chosen.empty()) f(chosen);
    return;
  }
  const int u = rev_topo[pos];
  // Exclude u.
  rec_endings(rev_topo, pos + 1, s, chosen, comps, max_ops, max_group_ops, f);
  // Include u: legal iff every in-S successor of u is already chosen
  // (successors precede u in reverse-topological order).
  if (chosen.size() < max_ops && (succ_mask(u) & s).is_subset_of(chosen)) {
    // Merge u with the chosen components it touches. A weakly connected
    // component never shrinks as more ops are added, so once it exceeds
    // max_group_ops the whole subtree violates the pruning strategy and can
    // be cut exactly — this is what keeps the pruned DP fast on wide blocks
    // like RandWire's.
    Set64 merged = Set64::single(u);
    std::vector<Set64> next_comps;
    next_comps.reserve(comps.size() + 1);
    const Set64 adj = adj_mask(u);
    for (const Set64 comp : comps) {
      if (comp.intersects(adj)) {
        merged |= comp;
      } else {
        next_comps.push_back(comp);
      }
    }
    if (merged.size() <= max_group_ops) {
      next_comps.push_back(merged);
      Set64 next = chosen;
      next.insert(u);
      rec_endings(rev_topo, pos + 1, s, next, next_comps, max_ops,
                  max_group_ops, f);
    }
  }
}

void BlockDag::for_each_ending(Set64 s, int max_ops, int max_group_ops,
                               const std::function<void(Set64)>& f) const {
  // Reverse topological order of the members of s: local indices ascending
  // is topological, so descending is reverse-topological.
  std::vector<int> rev_topo;
  rev_topo.reserve(static_cast<std::size_t>(s.size()));
  for (int i : s) rev_topo.push_back(i);
  std::reverse(rev_topo.begin(), rev_topo.end());
  std::vector<Set64> comps;
  rec_endings(rev_topo, 0, s, Set64{}, comps, max_ops, max_group_ops, f);
}

std::vector<Set64> BlockDag::components(Set64 s) const {
  std::vector<Set64> comps;
  Set64 rest = s;
  while (!rest.empty()) {
    Set64 comp = Set64::single(rest.first());
    // Grow to the full weakly-connected component via mask BFS.
    for (;;) {
      Set64 frontier = comp;
      Set64 grown = comp;
      for (int i : frontier) grown |= adj_mask(i) & s;
      if (grown == comp) break;
      comp = grown;
    }
    comps.push_back(comp);
    rest -= comp;
  }
  return comps;
}

std::vector<std::vector<Set64>> BlockDag::down_sets() const {
  std::vector<std::vector<Set64>> levels(static_cast<std::size_t>(n_) + 1);
  levels[0].push_back(Set64{});
  // Local indices are topological, so a down-set's highest op has no
  // successor in it, and removing that op leaves a down-set one smaller.
  // Each down-set of p + 1 ops thus arises exactly once: from the one of p
  // ops below it, by adding an op above that set's highest whose
  // predecessors it holds.
  for (int p = 0; p < n_; ++p) {
    std::vector<Set64>& next = levels[static_cast<std::size_t>(p) + 1];
    for (const Set64 s : levels[static_cast<std::size_t>(p)]) {
      const int above = 64 - std::countl_zero(s.bits());
      for (int x = above; x < n_; ++x) {
        if (pred_mask(x).is_subset_of(s)) next.push_back(s | Set64::single(x));
      }
    }
    std::sort(next.begin(), next.end(),
              [](Set64 a, Set64 b) { return a.bits() < b.bits(); });
  }
  return levels;
}

BlockDag::DownSetIndex BlockDag::down_set_index() const {
  DownSetIndex index;
  for (const std::vector<Set64>& level : down_sets()) {
    index.level_begin.push_back(static_cast<std::uint32_t>(index.size()));
    for (const Set64 d : level) index.sets.push_back(d.bits());
  }
  index.level_begin.push_back(static_cast<std::uint32_t>(index.size()));

  FlatMap64<std::uint32_t> id_of(index.size());
  for (std::uint32_t id = 0; id < index.size(); ++id) {
    id_of.try_emplace(index.sets[id], id);
  }
  index.top.reserve(index.size());
  index.child_begin.reserve(index.size() + 1);
  for (const std::uint64_t bits : index.sets) {
    const Set64 d{bits};
    Set64 top;
    for (int u : d) {
      if (!succ_mask(u).intersects(d)) top.insert(u);
    }
    index.top.push_back(top.bits());
    index.child_begin.push_back(static_cast<std::uint32_t>(index.child.size()));
    // Removing an op with no successor in D leaves a down-set.
    for (int u : top) {
      index.child.push_back(*id_of.find((d - Set64::single(u)).bits()));
    }
  }
  index.child_begin.push_back(static_cast<std::uint32_t>(index.child.size()));
  return index;
}

namespace {

/// The ending trie's builder: one DFS shaped like visit_rec, which gives a
/// node's children contiguous ids before descending into them.
struct TrieBuilder {
  const BlockDag& dag;
  BlockDag::EndingTrie& trie;
  std::vector<Set64> anc;  ///< op -> its ancestors
  Set64 rows[64][64];      ///< component lists by depth, as in visit_rec

  /// Merges u into the components `comps` that touch it, writing the
  /// untouched ones to `next`; returns the merged component.
  Set64 merge(int u, const Set64* comps, int ncomps, Set64* next,
              int& nnext) const {
    Set64 merged = Set64::single(u);
    const Set64 adj = dag.adj_mask(u);
    for (int c = 0; c < ncomps; ++c) {
      if (comps[c].intersects(adj)) {
        merged |= comps[c];
      } else if (next != nullptr) {
        next[nnext++] = comps[c];
      }
    }
    return merged;
  }

  /// Fills in node `node`, the ending `chosen` of `depth` ops whose smallest
  /// member is `below`, with ancestors `chosen_anc` and components `comps`.
  void build(std::uint32_t node, Set64 chosen, Set64 chosen_anc, int below,
             const Set64* comps, int ncomps, int depth) {
    if (depth >= trie.max_ops) return;
    Set64 kids;
    for (int u = 0; u < below; ++u) {
      // chosen + {u} is convex unless a path from u reaches a member through
      // an op outside it (no path runs from a member down to u). The path's
      // first op after u is then outside and reaches a member: were it
      // inside, the rest of the path would be too, chosen being convex.
      if (dag.succ_mask(u).intersects(chosen_anc - chosen)) continue;
      int unused = 0;
      if (merge(u, comps, ncomps, nullptr, unused).size() >
          trie.max_group_ops) {
        continue;
      }
      kids.insert(u);
    }
    const auto first = static_cast<std::uint32_t>(trie.size());
    trie.child_mask[node] = kids.bits();
    trie.first_child[node] = first;
    trie.child_mask.resize(trie.size() + static_cast<std::size_t>(kids.size()));
    trie.first_child.resize(trie.child_mask.size());
    std::uint32_t child = first;
    for (int u : kids) {
      Set64* next = rows[depth];
      int nnext = 0;
      const Set64 merged = merge(u, comps, ncomps, next, nnext);
      next[nnext++] = merged;
      build(child++, chosen | Set64::single(u),
            chosen_anc | anc[static_cast<std::size_t>(u)], u, next, nnext,
            depth + 1);
    }
  }
};

}  // namespace

BlockDag::EndingTrie BlockDag::ending_trie(int max_ops,
                                           int max_group_ops) const {
  EndingTrie trie;
  trie.max_ops = max_ops;
  trie.max_group_ops = max_group_ops;
  trie.child_mask.push_back(0);
  trie.first_child.push_back(0);
  TrieBuilder builder{*this, trie, {}, {}};
  // Ancestor closure: predecessors have lower indices.
  builder.anc.resize(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) {
    Set64 a = pred_mask(i);
    for (int j : pred_mask(i)) a |= builder.anc[static_cast<std::size_t>(j)];
    builder.anc[static_cast<std::size_t>(i)] = a;
  }
  builder.build(0, Set64{}, Set64{}, n_, nullptr, 0, 0);
  return trie;
}

int BlockDag::width() const {
  // Transitive closure by descending local index (successors first).
  std::vector<Set64> closure(static_cast<std::size_t>(n_));
  for (int i = n_ - 1; i >= 0; --i) {
    Set64 c = succ_mask(i);
    for (int j : succ_mask(i)) c |= closure[static_cast<std::size_t>(j)];
    closure[static_cast<std::size_t>(i)] = c;
  }

  // Dilworth: largest antichain = n - max matching in the bipartite graph
  // {left copy} x {right copy} with an edge (i, j) iff i precedes j.
  std::vector<int> match_right(static_cast<std::size_t>(n_), -1);
  std::vector<char> visited(static_cast<std::size_t>(n_));
  std::function<bool(int)> try_kuhn = [&](int i) -> bool {
    for (int j : closure[static_cast<std::size_t>(i)]) {
      if (visited[static_cast<std::size_t>(j)]) continue;
      visited[static_cast<std::size_t>(j)] = 1;
      if (match_right[static_cast<std::size_t>(j)] == -1 ||
          try_kuhn(match_right[static_cast<std::size_t>(j)])) {
        match_right[static_cast<std::size_t>(j)] = i;
        return true;
      }
    }
    return false;
  };
  int matching = 0;
  for (int i = 0; i < n_; ++i) {
    std::fill(visited.begin(), visited.end(), 0);
    if (try_kuhn(i)) ++matching;
  }
  return n_ - matching;
}

BlockDag::TransitionCount BlockDag::count_transitions() const {
  // The unpruned DP's states are the down-sets, the empty state included
  // (cost[emptyset] = 0), matching the paper's state diagram in Figure 5
  // which includes S = {}.
  TransitionCount out;
  for (const std::vector<Set64>& level : down_sets()) {
    for (const Set64 s : level) {
      ++out.states;
      for_each_ending(s, 64, [&](Set64) { ++out.transitions; });
    }
  }
  return out;
}

double BlockDag::count_schedules() const {
  FlatMap64<double> memo;
  std::function<double(Set64)> count = [&](Set64 s) -> double {
    if (s.empty()) return 1.0;
    if (const double* hit = memo.find(s.bits())) return *hit;
    double total = 0;
    for_each_ending(s, 64, [&](Set64 ending) { total += count(s - ending); });
    memo.try_emplace(s.bits(), total);
    return total;
  };
  return count(all());
}

double BlockDag::transition_upper_bound(int n, int d) {
  const double ratio = static_cast<double>(n) / d;
  const double per_chain = (ratio + 2.0) * (ratio + 1.0) / 2.0;
  double bound = 1;
  for (int i = 0; i < d; ++i) bound *= per_chain;
  return bound;
}

}  // namespace ios
