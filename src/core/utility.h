// Marginal utility of crowdsourcing one expression (Definition 6):
//
//   G(o, e) = H(o) - E[H(o | e)]
//   E[H(o|e)] = Pr(e) H(o | e=true) + (1 - Pr(e)) H(o | e=false)
//
// H(o | e=x) is the entropy of o after every occurrence of e in φ(o) is
// fixed to x and the condition is re-simplified (the paper's reading).

#ifndef BAYESCROWD_CORE_UTILITY_H_
#define BAYESCROWD_CORE_UTILITY_H_

#include <vector>

#include "common/result.h"
#include "ctable/condition.h"
#include "probability/evaluator.h"

namespace bayescrowd {

/// φ(o) with every occurrence of `e` replaced by the truth value
/// `value` (other expressions untouched), re-simplified.
Condition FixExpression(const Condition& condition, const Expression& e,
                        bool value);

/// G(o, e). `p_o` is the current Pr(φ(o)) (avoids recomputation; the
/// caller already needed it for the entropy ranking). With a governed
/// evaluator the counterfactual probabilities may come back as
/// intervals; entropies are taken at the midpoint, or — when
/// `pessimistic` — at the interval's point nearest 1/2 (see
/// PessimisticPoint), making poorly-solved counterfactuals look
/// maximally uncertain. A one-candidate MarginalUtilities call.
Result<double> MarginalUtility(const Condition& condition, double p_o,
                               const Expression& e,
                               ProbabilityEvaluator& evaluator,
                               bool pessimistic = false);

/// G(o, e) for every candidate expression at once: the 2·n
/// counterfactual conditions (e fixed true / fixed false) go through the
/// evaluator's batch API, so they are memoized across rounds and fanned
/// over its thread pool. gains[i] aligns with candidates[i], for any
/// thread count.
Result<std::vector<double>> MarginalUtilities(
    const Condition& condition, double p_o,
    const std::vector<Expression>& candidates,
    ProbabilityEvaluator& evaluator, bool pessimistic = false);

}  // namespace bayescrowd

#endif  // BAYESCROWD_CORE_UTILITY_H_
