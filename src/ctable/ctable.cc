#include "ctable/ctable.h"

#include <unordered_set>

namespace bayescrowd {

std::size_t CTable::NumTrue() const {
  std::size_t count = 0;
  for (const auto& c : conditions_) count += c.IsTrue() ? 1 : 0;
  return count;
}

std::size_t CTable::NumFalse() const {
  std::size_t count = 0;
  for (const auto& c : conditions_) count += c.IsFalse() ? 1 : 0;
  return count;
}

std::size_t CTable::NumUndecided() const {
  return conditions_.size() - NumTrue() - NumFalse();
}

std::vector<CellRef> CTable::AllVariables() const {
  std::vector<CellRef> out;
  std::unordered_set<PackedVar> seen;
  for (const auto& c : conditions_) {
    if (c.IsDecided()) continue;
    for (const Conjunct& conj : c.conjuncts()) {
      for (const Expression& e : conj) {
        if (seen.insert(PackVar(e.lhs)).second) out.push_back(e.lhs);
        if (e.rhs_is_var && seen.insert(PackVar(e.rhs_var)).second) {
          out.push_back(e.rhs_var);
        }
      }
    }
  }
  return out;
}

std::size_t CTable::TotalExpressions() const {
  std::size_t total = 0;
  for (const auto& c : conditions_) {
    if (!c.IsDecided()) total += c.NumExpressions();
  }
  return total;
}

std::vector<std::size_t> CTable::UndecidedObjects() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < conditions_.size(); ++i) {
    if (!conditions_[i].IsDecided()) out.push_back(i);
  }
  return out;
}

}  // namespace bayescrowd
