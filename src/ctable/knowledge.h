// KnowledgeBase: everything learned from crowd answers so far.
//
// A crowd answer is a triple-choice relation (larger / smaller / equal)
// between a variable and a constant or another variable. Answers are not
// stored as per-expression booleans: they narrow the variable's possible
// value interval (Var < 4 removes levels >= 4) or record a var-var order
// fact. All conditions are then re-simplified against the knowledge
// base, which reproduces the paper's inference behaviour (Example 4:
// learning Var(o5,a3)=3 simultaneously decides ...<1, ...>2 and ...>3).

#ifndef BAYESCROWD_CTABLE_KNOWLEDGE_H_
#define BAYESCROWD_CTABLE_KNOWLEDGE_H_

#include <map>
#include <utility>
#include <vector>

#include "common/binio.h"
#include "common/status.h"
#include "ctable/expression.h"
#include "data/schema.h"
#include "data/table.h"

namespace bayescrowd {

/// Relation of a left operand to a right operand.
enum class Ordering : std::uint8_t { kLess, kEqual, kGreater };

const char* OrderingToString(Ordering ordering);

/// Reads one relation byte, as the answer log and checkpoints write it,
/// refusing a value above kGreater with OutOfRange.
Status ReadOrdering(BinReader* reader, Ordering* out);

/// Accumulated crowd knowledge: per-variable value intervals plus
/// var-var order facts.
class KnowledgeBase {
 public:
  explicit KnowledgeBase(const Schema& schema) : schema_(schema) {}

  /// Records "var < bound" / "var > bound" / "var == value". Facts that
  /// contradict earlier knowledge (possible with imperfect workers) are
  /// resolved newest-wins: the interval is reset to the newest fact
  /// intersected with the domain. Facts impossible within the domain are
  /// rejected with InvalidArgument.
  Status RestrictLess(const CellRef& var, Level bound);
  Status RestrictGreater(const CellRef& var, Level bound);
  Status RestrictEqual(const CellRef& var, Level value);

  /// Records the relation between two variables ("a `ordering` b").
  /// Re-recording the same ordering is idempotent; a fact that
  /// contradicts the stored one (a>b after b>a) is rejected with
  /// InvalidArgument — the stored fact is kept and the caller decides
  /// how to arbitrate (the framework counts and skips the answer).
  Status RecordVarOrder(const CellRef& a, const CellRef& b,
                        Ordering ordering);

  /// Inclusive interval [lo, hi] of still-possible values.
  std::pair<Level, Level> Bounds(const CellRef& var) const;

  /// True when the interval has collapsed to a single value (returned
  /// through `value` if non-null).
  bool IsPinned(const CellRef& var, Level* value = nullptr) const;

  /// Three-valued truth of `expression` under current knowledge.
  Truth Evaluate(const Expression& expression) const;

  /// Conditions a raw value distribution on the allowed interval and
  /// renormalizes. Zero-mass results degrade to uniform-over-interval.
  std::vector<double> ConditionDistribution(
      const CellRef& var, const std::vector<double>& raw) const;

  std::size_t num_interval_facts() const { return intervals_.size(); }
  std::size_t num_order_facts() const { return orders_.size(); }

 private:
  // Applies [lo, hi] as a new constraint with newest-wins conflict
  // resolution.
  void Narrow(const CellRef& var, Level lo, Level hi);

  Schema schema_;
  std::map<CellRef, std::pair<Level, Level>> intervals_;
  // Key is the canonical (smaller CellRef first) pair; value is the
  // ordering of key.first relative to key.second.
  std::map<std::pair<CellRef, CellRef>, Ordering> orders_;
};

}  // namespace bayescrowd

#endif  // BAYESCROWD_CTABLE_KNOWLEDGE_H_
