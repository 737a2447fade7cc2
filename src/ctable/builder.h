// Get-CTable (Algorithm 2): builds the c-table of a skyline query over
// an incomplete table.
//
// For every object o:
//   |D(o)| == 0               -> φ(o) = true   (certain skyline object)
//   |D(o)| > α|O|             -> φ(o) = false  (pruned: too likely
//                                               dominated)
//   ∃ o' ∈ D(o) dominating o  -> φ(o) = false
//     in every world
//   otherwise                 -> φ(o) = CNF over D(o) (Section 4.1)

#ifndef BAYESCROWD_CTABLE_BUILDER_H_
#define BAYESCROWD_CTABLE_BUILDER_H_

#include "common/result.h"
#include "common/thread_pool.h"
#include "ctable/ctable.h"
#include "ctable/dominator.h"
#include "data/table.h"

namespace bayescrowd {

struct CTableOptions {
  /// Pruning threshold α of Algorithm 2. Negative disables pruning.
  double alpha = 0.01;
};

/// Builds the condition of one object given its dominator set (exposed
/// for tests; BuildCTable drives it for all objects).
Condition BuildCondition(const Table& table, std::size_t object,
                         const std::vector<std::uint32_t>& dominators);

/// The c-table of given dominator sets: false for a pruned object,
/// BuildCondition over its set otherwise. With a `pool`, objects fan
/// out over its lanes; the c-table is the same at any lane count.
Result<CTable> BuildConditions(const Table& table, const DominatorSets& sets,
                               ThreadPool* pool = nullptr);

/// Algorithm 2 over the whole table: ComputeDominatorSets, then
/// BuildConditions, both on `pool` when one is given.
Result<CTable> BuildCTable(const Table& table,
                           const CTableOptions& options = {},
                           ThreadPool* pool = nullptr);

}  // namespace bayescrowd

#endif  // BAYESCROWD_CTABLE_BUILDER_H_
