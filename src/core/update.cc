#include "core/update.h"

namespace bayescrowd {

Status ApplyAnswer(const FoldedAnswer& answer, KnowledgeBase* knowledge) {
  const Expression& e = answer.expression;
  if (e.rhs_is_var) {
    return knowledge->RecordVarOrder(e.lhs, e.rhs_var, answer.relation);
  }
  const Level c = e.rhs_const;
  switch (answer.relation) {
    case Ordering::kLess: {
      const Status st = knowledge->RestrictLess(e.lhs, c);
      // "Var < 0" is impossible; the closest consistent fact is Var = 0.
      if (st.IsInvalidArgument()) return knowledge->RestrictEqual(e.lhs, 0);
      return st;
    }
    case Ordering::kGreater: {
      const Status st = knowledge->RestrictGreater(e.lhs, c);
      // "Var > max" is impossible; degrade to Var = max... except the
      // bound may equal max, in which case pin to the bound.
      if (st.IsInvalidArgument()) return knowledge->RestrictEqual(e.lhs, c);
      return st;
    }
    case Ordering::kEqual:
      return knowledge->RestrictEqual(e.lhs, c);
  }
  return Status::Internal("unknown ordering");
}

}  // namespace bayescrowd
