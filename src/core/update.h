// Applying crowd answers to the knowledge base.

#ifndef BAYESCROWD_CORE_UPDATE_H_
#define BAYESCROWD_CORE_UPDATE_H_

#include "common/status.h"
#include "ctable/expression.h"
#include "ctable/knowledge.h"

namespace bayescrowd {

/// One answered task as the update step folds it: the expression asked
/// and the crowd's relation of its left operand to its right operand.
/// A session's folded answers, in order, are what its checkpoints store.
struct FoldedAnswer {
  Expression expression;
  Ordering relation = Ordering::kEqual;

  friend bool operator==(const FoldedAnswer&, const FoldedAnswer&) = default;
};

/// Records one aggregated answer. Var-const answers narrow the
/// variable's interval; var-var answers record an order fact. Answers
/// that are impossible within the domain (only producible by erroneous
/// workers, e.g. "greater than the domain maximum") are degraded to the
/// nearest consistent fact (equality with the bound).
Status ApplyAnswer(const FoldedAnswer& answer, KnowledgeBase* knowledge);

}  // namespace bayescrowd

#endif  // BAYESCROWD_CORE_UPDATE_H_
