// Marginal utility of crowdsourcing one expression (Definition 6):
//
//   G(o, e) = H(o) - E[H(o | e)]
//   E[H(o|e)] = Pr(e) H(o | e=true) + (1 - Pr(e)) H(o | e=false)
//
// H(o | e=x) is the entropy of o after every occurrence of e in φ(o) is
// fixed to x and the condition is re-simplified (the paper's reading).
//
// Two paths compute the counterfactuals Pr(φ[e:=x]). StarPassUtilities
// reads them for every candidate of an object off one counterfactual
// star pass (ProbabilityEvaluator::EvaluateCounterfactuals); it serves
// exact ungoverned ADPLL on star-shaped conditions, which is where the
// round loop spends its scoring time. MarginalUtilities is the
// per-candidate path for everything else: it builds the FixExpression
// copies and solves them through the evaluator's batch API, so
// governed grades, budgets and cost units apply unchanged. The two
// agree to rounding (~1e-15 relative); GainScan's tie rule keeps that
// noise out of every selection.
//
// Registry counters (the evaluator's metrics registry):
// utility.star_passes and utility.star_candidates count the objects
// and candidates the pass scored, utility.fallback_candidates the
// candidates scored per candidate.

#ifndef BAYESCROWD_CORE_UTILITY_H_
#define BAYESCROWD_CORE_UTILITY_H_

#include <optional>
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

/// G(o, e) for every candidate expression at once, per candidate: the
/// 2·n counterfactual conditions (e fixed true / fixed false) go through
/// the evaluator's batch API, fanned over its thread pool. gains[i]
/// aligns with candidates[i], for any thread count.
Result<std::vector<double>> MarginalUtilities(
    const Condition& condition, double p_o,
    const std::vector<Expression>& candidates,
    ProbabilityEvaluator& evaluator, bool pessimistic = false);

/// One object's scoring request for StarPassUtilities.
struct UtilityQuery {
  const Condition* condition = nullptr;
  double p_o = 0.0;  // Current Pr(φ(o)).
  const std::vector<Expression>* candidates = nullptr;
};

/// G(o, e) for the candidates of many objects, each object's
/// counterfactuals read off one star pass, all objects in one
/// ParallelFor. gains[q] aligns with queries[q].candidates; it is
/// nullopt when the pass cannot serve that object, whose candidates
/// then go through MarginalUtilities. Exact values only (the pass never
/// serves a governed evaluator), so no pessimism applies.
Result<std::vector<std::optional<std::vector<double>>>> StarPassUtilities(
    const std::vector<UtilityQuery>& queries,
    ProbabilityEvaluator& evaluator);

}  // namespace bayescrowd

#endif  // BAYESCROWD_CORE_UTILITY_H_
