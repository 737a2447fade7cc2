// Condition: the CNF formula attached to each object in a c-table.
//
// φ(o) = [o1 ⊀ o] ∧ [o2 ⊀ o] ∧ ...  where each conjunct is a disjunction
// of at most d expressions (Section 4.1). A condition can also be the
// constants true / false (object certainly in / certainly out).

#ifndef BAYESCROWD_CTABLE_CONDITION_H_
#define BAYESCROWD_CTABLE_CONDITION_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "ctable/expression.h"
#include "data/table.h"

namespace bayescrowd {

/// One disjunction of expressions.
using Conjunct = std::vector<Expression>;

/// 128-bit structural fingerprint of a condition. Conditions that
/// compare equal share a fingerprint; the probability evaluator seeds
/// per-condition sampling streams from it, and the solver breakers key
/// on it (two words keep accidental collisions negligible).
using ConditionFingerprint = std::pair<std::uint64_t, std::uint64_t>;

/// CNF condition with three-valued overall state.
class Condition {
 public:
  /// Constructs the constant `true` condition.
  Condition() : state_(Truth::kTrue) {}

  static Condition True() { return Condition(); }
  static Condition False() {
    Condition c;
    c.state_ = Truth::kFalse;
    return c;
  }

  /// Builds a CNF condition. Empty conjunct lists collapse to `true`;
  /// an empty conjunct (disjunction of nothing) collapses the whole
  /// condition to `false`.
  static Condition Cnf(std::vector<Conjunct> conjuncts);

  bool IsTrue() const { return state_ == Truth::kTrue; }
  bool IsFalse() const { return state_ == Truth::kFalse; }
  bool IsDecided() const { return state_ != Truth::kUnknown; }

  const std::vector<Conjunct>& conjuncts() const { return conjuncts_; }

  /// Total number of expressions across conjuncts.
  std::size_t NumExpressions() const;

  /// Distinct variables, in first-appearance order.
  std::vector<CellRef> Variables() const;

  /// Structural fingerprint consistent with operator== (equal
  /// conditions share it). O(total expressions).
  ConditionFingerprint Fingerprint() const;

  /// Occurrence count of `var` across all expressions.
  std::size_t VariableFrequency(const CellRef& var) const;

  /// The variable appearing the most times (ties broken by first
  /// appearance). Requires an undecided condition.
  CellRef MostFrequentVariable() const;

  /// True when no two conjuncts share a variable — the precondition for
  /// ADPLL's direct product rule (Algorithm 3, line 2).
  bool ConjunctsAreIndependent() const;

  /// Groups conjunct indices into connected components of the
  /// variable-sharing graph. Components can be integrated independently.
  std::vector<std::vector<std::size_t>> ConjunctComponents() const;

  /// Returns the condition obtained by fixing `var := value`:
  /// expressions over `var` are decided (or degraded to var-const form)
  /// and the CNF is re-simplified. This is ADPLL's branching step.
  Condition SubstituteVariable(const CellRef& var, Level value) const;

  /// Re-simplifies in place using a three-valued oracle for individual
  /// expressions (e.g. KnowledgeBase::Evaluate after crowd answers).
  /// Expressions evaluating kTrue satisfy their conjunct; kFalse ones are
  /// removed; kUnknown ones stay. Surviving expressions are compacted
  /// inside the existing storage, so nothing is allocated. Returns true
  /// when the condition changed; a decided condition is left alone.
  bool Simplify(const std::function<Truth(const Expression&)>& evaluate);

  /// A simplified copy: Simplify applied to a copy of this condition.
  Condition SimplifyWith(
      const std::function<Truth(const Expression&)>& evaluate) const;

  /// "true", "false", or "(e11 | e12) & (e21)" with expression text from
  /// `table`.
  std::string ToString(const Table& table) const;

  friend bool operator==(const Condition& a, const Condition& b);

 private:
  Truth state_ = Truth::kTrue;
  std::vector<Conjunct> conjuncts_;  // Non-empty iff state_ == kUnknown.
};

}  // namespace bayescrowd

#endif  // BAYESCROWD_CTABLE_CONDITION_H_
