#include "core/utility.h"

#include "core/entropy.h"

namespace bayescrowd {

Condition FixExpression(const Condition& condition, const Expression& e,
                        bool value) {
  return condition.SimplifyWith([&e, value](const Expression& candidate) {
    if (candidate == e) return TruthOf(value);
    return Truth::kUnknown;
  });
}

namespace {

// The scalar an interval contributes to an entropy term: its midpoint,
// or under pessimism the consistent probability nearest 1/2.
double EntropyPoint(const ProbInterval& interval, bool pessimistic) {
  return pessimistic ? PessimisticPoint(interval) : interval.midpoint();
}

}  // namespace

Result<double> MarginalUtility(const Condition& condition, double p_o,
                               const Expression& e,
                               ProbabilityEvaluator& evaluator,
                               bool pessimistic) {
  BAYESCROWD_ASSIGN_OR_RETURN(
      const std::vector<double> gains,
      MarginalUtilities(condition, p_o, {e}, evaluator, pessimistic));
  return gains.front();
}

Result<std::vector<double>> MarginalUtilities(
    const Condition& condition, double p_o,
    const std::vector<Expression>& candidates,
    ProbabilityEvaluator& evaluator, bool pessimistic) {
  const std::size_t n = candidates.size();
  std::vector<Condition> counterfactuals;
  counterfactuals.reserve(2 * n);
  for (const Expression& e : candidates) {
    counterfactuals.push_back(FixExpression(condition, e, true));
    counterfactuals.push_back(FixExpression(condition, e, false));
  }
  std::vector<const Condition*> pointers;
  pointers.reserve(counterfactuals.size());
  for (const Condition& c : counterfactuals) pointers.push_back(&c);
  BAYESCROWD_ASSIGN_OR_RETURN(const std::vector<ProbInterval> probabilities,
                              evaluator.EvaluateBatchIntervals(pointers));

  const double h_o = BinaryEntropy(p_o);
  std::vector<double> gains(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    BAYESCROWD_ASSIGN_OR_RETURN(const double p_e,
                                evaluator.Probability(candidates[i]));
    gains[i] =
        h_o -
        (p_e * BinaryEntropy(EntropyPoint(probabilities[2 * i], pessimistic)) +
         (1.0 - p_e) *
             BinaryEntropy(EntropyPoint(probabilities[2 * i + 1],
                                        pessimistic)));
  }
  return gains;
}

}  // namespace bayescrowd
