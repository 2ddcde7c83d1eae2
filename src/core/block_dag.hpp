#pragma once
// BlockDag: the per-block view the dynamic program works on. Operators of
// one block are re-indexed into [0, n) (n <= 64) so subsets of them — the
// states S and endings S' of Algorithm 1 — are Set64 bitmasks. Provides
// ending enumeration, weakly-connected-component grouping, DAG width
// (Definition 1, computed via Dilworth's theorem), and the state/transition
// counting behind Table 1.

#include <functional>
#include <span>

#include "graph/graph.hpp"
#include "util/bitset64.hpp"

namespace ios {

class BlockDag {
 public:
  /// @param block_ops ops of one block in topological (id) order; <= 64.
  BlockDag(const Graph& g, std::span<const OpId> block_ops);

  int size() const { return n_; }
  Set64 all() const { return Set64::full(n_); }
  OpId op_of(int local) const { return ops_[static_cast<std::size_t>(local)]; }
  int local_of(OpId id) const;

  /// Direct successors/predecessors within the block.
  Set64 succ_mask(int local) const {
    return succ_[static_cast<std::size_t>(local)];
  }
  Set64 pred_mask(int local) const {
    return pred_[static_cast<std::size_t>(local)];
  }
  /// Undirected adjacency within the block (for group construction).
  Set64 adj_mask(int local) const {
    return adj_[static_cast<std::size_t>(local)];
  }

  std::vector<OpId> to_ops(Set64 s) const;

  /// Invokes `f` once for every non-empty ending S' of S — every non-empty
  /// subset of S closed under in-S successors (Figure 4). Enumeration order
  /// is deterministic. `max_ops`, when < 64, prunes endings larger than that
  /// many operators (the r*s cap of the pruning strategy); `max_group_ops`
  /// prunes endings containing a weakly connected component larger than r
  /// (components only grow as ops are added, so the cut is exact).
  void for_each_ending(Set64 s, int max_ops,
                       const std::function<void(Set64)>& f) const {
    for_each_ending(s, max_ops, 64, f);
  }
  void for_each_ending(Set64 s, int max_ops, int max_group_ops,
                       const std::function<void(Set64)>& f) const;

  /// Allocation-free ending enumeration: the same endings, in the same
  /// order, with the same pruning as for_each_ending, but templated on the
  /// callback (no std::function indirection) and walking one recursion frame
  /// per ending instead of one per skipped op. for_each_ending decides each
  /// op of S in reverse-topological (descending index) order, excluding
  /// before including, so it emits endings in ascending mask order. This
  /// enumerator jumps straight to the next includable op instead: a frame
  /// emits its ending on entry, then recurses into each "ready" op (every
  /// in-S successor already chosen) below the ending's smallest member, in
  /// ascending index order — the same ascending mask order, and each ending
  /// is reached by including its ops in descending index order, exactly as
  /// for_each_ending builds it. The callback receives f(ending, comps,
  /// ncomps): the weakly connected components the enumerator maintains for
  /// its group-size cut, valid only for the duration of the call. They are
  /// the same component lists for_each_ending builds, hence the partition
  /// components(ending) computes (in merge order, not smallest-member
  /// order), so evaluators can skip the per-ending flood fill entirely. This
  /// is the wave engine's hot path; for_each_ending is kept as the reference
  /// (and as the serial engine's code path).
  template <typename F>
  void visit_endings(Set64 s, int max_ops, int max_group_ops, F&& f) const {
    // The ops of S with no in-S successor are includable from the start.
    Set64 ready;
    for (int u : s) {
      if (!succ_mask(u).intersects(s)) ready.insert(u);
    }
    // rows.row[d] holds the component lists built by the include steps out
    // of a frame at depth d (d ops chosen); a frame's own list lives in row
    // d - 1, so siblings overwrite only each other's finished lists.
    ComponentRows rows;
    visit_rec(s, Set64{}, ready, 64, nullptr, 0, 0, rows, max_ops,
              max_group_ops, f);
  }

  /// Weakly connected components of the induced subgraph on `s`, each a
  /// Set64, ordered by smallest member.
  std::vector<Set64> components(Set64 s) const;

  /// The block's down-sets (op sets closed under predecessors) bucketed by
  /// size: element p holds every down-set of p ops in ascending mask order,
  /// element 0 the empty set. They are the states the unpruned DP reaches
  /// from the full set. O(down-sets x n), with no hashing.
  std::vector<std::vector<Set64>> down_sets() const;

  /// Width d of the block DAG (Definition 1): size of the largest
  /// antichain, computed as n minus a maximum matching on the transitive
  /// closure (Dilworth / Corollary 1).
  int width() const;

  /// Number of distinct (S, S') pairs the unpruned dynamic program visits —
  /// the "#(S, S')" column of Table 1. Also reports the number of states.
  struct TransitionCount {
    std::int64_t states = 0;
    std::int64_t transitions = 0;
  };
  TransitionCount count_transitions() const;

  /// Total number of feasible schedules (ordered partitions of the block
  /// into endings) — the "#Schedules" column of Table 1. Returned as double
  /// because the count reaches ~1e22 on RandWire.
  double count_schedules() const;

  /// The paper's closed-form upper bound ((n/d+2) choose 2)^d on the number
  /// of transitions, evaluated with real-valued n/d.
  static double transition_upper_bound(int n, int d);

 private:
  void rec_endings(std::span<const int> rev_topo, std::size_t pos, Set64 s,
                   Set64 chosen, std::vector<Set64>& comps, int max_ops,
                   int max_group_ops,
                   const std::function<void(Set64)>& f) const;

  /// Per-depth scratch rows for visit_endings' component merging, indexed
  /// by include depth (32 KiB of stack; fine on pool worker threads).
  struct ComponentRows {
    Set64 row[64][64];
  };

  /// One frame per ending: `chosen` (of size `depth`) with components
  /// `comps`, `ready` the ops of S whose in-S successors are all chosen, and
  /// `below` the smallest chosen index (64 at the root).
  template <typename F>
  void visit_rec(Set64 s, Set64 chosen, Set64 ready, int below,
                 const Set64* comps, int ncomps, int depth, ComponentRows& rows,
                 int max_ops, int max_group_ops, F& f) const {
    if (depth > 0) f(chosen, comps, ncomps);
    if (depth >= max_ops) return;
    // Only ops below the smallest chosen one extend this ending: the others
    // are chosen already or were skipped on the way here.
    const Set64 candidates = ready & Set64::full(below);
    for (int u : candidates) {
      // A candidate is unchosen, so depth < 64 here.
      Set64* next = rows.row[depth];
      Set64 merged = Set64::single(u);
      int nnext = 0;
      const Set64 adj = adj_mask(u);
      for (int c = 0; c < ncomps; ++c) {
        if (comps[c].intersects(adj)) {
          merged |= comps[c];
        } else {
          next[nnext++] = comps[c];
        }
      }
      // Components only grow as ops are added, so exceeding max_group_ops
      // cuts the whole include subtree exactly (same cut as rec_endings).
      if (merged.size() > max_group_ops) continue;
      next[nnext++] = merged;
      Set64 next_chosen = chosen;
      next_chosen.insert(u);
      // Choosing u can only make u's in-S predecessors ready.
      Set64 next_ready = ready;
      for (int p : pred_mask(u) & s) {
        if ((succ_mask(p) & s).is_subset_of(next_chosen)) next_ready.insert(p);
      }
      visit_rec(s, next_chosen, next_ready, u, next, nnext, depth + 1, rows,
                max_ops, max_group_ops, f);
    }
  }

  int n_ = 0;
  std::vector<OpId> ops_;
  std::vector<Set64> succ_;
  std::vector<Set64> pred_;
  std::vector<Set64> adj_;
};

}  // namespace ios
