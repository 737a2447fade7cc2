#include "ctable/builder.h"

#include <algorithm>

namespace bayescrowd {
namespace {

/// Objects per work item of BuildConditions.
constexpr std::size_t kObjectsPerItem = 64;

/// True when `dominator` dominates `object` in every world, i.e. its
/// conjunct "dominator ⊀ object" would have no disjunct left: every
/// attribute is either observed on both sides with dominator >= object,
/// or has one side missing where the comparison is unsatisfiable
/// (object at level 0, or dominator at the domain maximum). A strictly
/// better observed object attribute makes the conjunct a tautology, and
/// a fully-observed exact duplicate can never *strictly* dominate
/// (Definition 1 requires a strictly better attribute): the paper's CNF
/// sketch elides that corner case, but real data has ties.
bool CertainlyDominates(const Table& table, std::size_t object,
                        std::size_t dominator) {
  bool all_equal_observed = true;
  for (std::size_t j = 0; j < table.num_attributes(); ++j) {
    const Level ov = table.At(object, j);
    const Level pv = table.At(dominator, j);
    const bool o_missing = IsMissingLevel(ov);
    const bool p_missing = IsMissingLevel(pv);
    if (!o_missing && !p_missing) {
      if (ov > pv) return false;
      if (ov != pv) all_equal_observed = false;
      continue;
    }
    all_equal_observed = false;
    if (o_missing && p_missing) return false;
    if (!o_missing && ov != 0) return false;
    if (o_missing && pv < table.schema().domain_size(j) - 1) return false;
  }
  return !all_equal_observed;
}

}  // namespace

Condition BuildCondition(const Table& table, std::size_t object,
                         const std::vector<std::uint32_t>& dominators) {
  if (dominators.empty()) return Condition::True();
  // One certain dominator decides the object before any conjunct is
  // built.
  for (std::uint32_t dominator : dominators) {
    if (CertainlyDominates(table, object, dominator)) {
      return Condition::False();
    }
  }
  const std::size_t d = table.num_attributes();
  std::vector<Conjunct> conjuncts;
  conjuncts.reserve(dominators.size());
  for (std::uint32_t dominator : dominators) {
    // Conjunct "dominator ⊀ object": disjunction of "object beats
    // dominator in attribute j" over all j (Section 4.1).
    Conjunct conjunct;
    for (std::size_t j = 0; j < d; ++j) {
      const Level ov = table.At(object, j);
      const Level pv = table.At(dominator, j);
      const bool o_missing = IsMissingLevel(ov);
      const bool p_missing = IsMissingLevel(pv);
      if (!o_missing && !p_missing) {
        // Constant comparison. Membership in D(o) implies pv >= ov, so
        // "ov > pv" is false and the disjunct is dropped. (Kept general
        // for direct calls with arbitrary dominator lists.)
        if (ov > pv) {
          conjunct.clear();  // Tautology: conjunct certainly true.
          break;
        }
        continue;
      }
      if (!o_missing) {
        // ov > Var(dominator, j)  <=>  Var(dominator, j) < ov.
        if (ov == 0) continue;  // Var < 0 impossible in [0, L).
        conjunct.push_back(Expression::VarConst(
            {dominator, j}, CmpOp::kLess, ov));
        continue;
      }
      if (!p_missing) {
        // Var(object, j) > pv; impossible when pv is the domain maximum.
        if (pv >= table.schema().domain_size(j) - 1) continue;
        conjunct.push_back(Expression::VarConst(
            {object, j}, CmpOp::kGreater, pv));
        continue;
      }
      // Var(object, j) > Var(dominator, j).
      conjunct.push_back(Expression::VarVar({object, j}, CmpOp::kGreater,
                                            {dominator, j}));
    }
    // No certain dominator is left, so an empty conjunct is a tautology
    // or an exact duplicate: certainly true either way.
    if (conjunct.empty()) continue;
    conjuncts.push_back(std::move(conjunct));
  }
  return Condition::Cnf(std::move(conjuncts));
}

Result<CTable> BuildConditions(const Table& table, const DominatorSets& sets,
                               ThreadPool* pool) {
  const std::size_t n = table.num_objects();
  ThreadPool one_lane(1);  // Spawns no thread: a plain loop.
  ThreadPool& lanes = pool != nullptr ? *pool : one_lane;
  CTable ctable(n);
  const std::size_t items = (n + kObjectsPerItem - 1) / kObjectsPerItem;
  BAYESCROWD_RETURN_NOT_OK(lanes.ParallelFor(
      items, [&](std::size_t /*lane*/, std::size_t item) {
        const std::size_t end = std::min(n, (item + 1) * kObjectsPerItem);
        for (std::size_t i = item * kObjectsPerItem; i < end; ++i) {
          ctable.SetCondition(
              i, sets.pruned[i]
                     ? Condition::False()  // Algorithm 2, line 7.
                     : BuildCondition(table, i, sets.dominators[i]));
        }
      }));
  return ctable;
}

Result<CTable> BuildCTable(const Table& table, const CTableOptions& options,
                           ThreadPool* pool) {
  BAYESCROWD_ASSIGN_OR_RETURN(DominatorSets sets,
                              ComputeDominatorSets(table, options.alpha, pool));
  return BuildConditions(table, sets, pool);
}

}  // namespace bayescrowd
