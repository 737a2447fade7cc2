// Dominator-set derivation (Definition 5).
//
// D(o) = ∩_i D_i(o), where D_i(o) is all objects whose i-th value is
// missing or >= o.[i] (when o.[i] is observed), or every other object
// (when o.[i] is missing). Two implementations are provided, matching
// the paper's Figure 2 comparison:
//
//  * ComputeDominatorSets      — "Get-CTable style": per-dimension
//    precomputed >=-level bitsets, ANDed one 64-bit word at a time and
//    counted as they go, so an object the α rule prunes stops early and
//    only survivors get a list.
//  * ComputeDominatorSetsBaseline — simple pairwise comparisons.

#ifndef BAYESCROWD_CTABLE_DOMINATOR_H_
#define BAYESCROWD_CTABLE_DOMINATOR_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "data/table.h"

namespace bayescrowd {

/// Result of dominator-set derivation over all objects.
struct DominatorSets {
  /// dominators[i]: object ids that possibly dominate object i. Left
  /// empty when pruned[i] is true.
  std::vector<std::vector<std::uint32_t>> dominators;

  /// pruned[i]: |D(o_i)| exceeded alpha * |O| and the set was not
  /// materialized (the object will be deemed a non-answer, Algorithm 2
  /// line 7).
  std::vector<bool> pruned;
};

/// Fast derivation via per-dimension level bitsets. `alpha` < 0 disables
/// pruning; otherwise objects with more than alpha*n candidate
/// dominators are flagged pruned. With a `pool`, objects fan out over
/// its lanes; the output is the same at any lane count.
Result<DominatorSets> ComputeDominatorSets(const Table& table, double alpha,
                                           ThreadPool* pool = nullptr);

/// Reference pairwise derivation (the Baseline of Figure 2). Produces
/// identical output.
Result<DominatorSets> ComputeDominatorSetsBaseline(const Table& table,
                                                   double alpha);

}  // namespace bayescrowd

#endif  // BAYESCROWD_CTABLE_DOMINATOR_H_
