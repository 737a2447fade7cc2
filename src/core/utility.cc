#include "core/utility.h"

#include <cstdint>

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

// G(o, e) from H(o), Pr(e) and the two counterfactual probabilities.
double Gain(double h_o, double p_e, double p_true, double p_false) {
  return h_o - (p_e * BinaryEntropy(p_true) +
                (1.0 - p_e) * BinaryEntropy(p_false));
}

void Count(ProbabilityEvaluator& evaluator, const char* name,
           std::uint64_t amount) {
  if (amount > 0) evaluator.metrics()->GetCounter(name)->Increment(amount);
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

  Count(evaluator, "utility.fallback_candidates", n);

  const double h_o = BinaryEntropy(p_o);
  std::vector<double> gains(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    BAYESCROWD_ASSIGN_OR_RETURN(const double p_e,
                                evaluator.Probability(candidates[i]));
    gains[i] = Gain(h_o, p_e, EntropyPoint(probabilities[2 * i], pessimistic),
                    EntropyPoint(probabilities[2 * i + 1], pessimistic));
  }
  return gains;
}

Result<std::vector<std::optional<std::vector<double>>>> StarPassUtilities(
    const std::vector<UtilityQuery>& queries,
    ProbabilityEvaluator& evaluator) {
  std::vector<CounterfactualRequest> requests;
  requests.reserve(queries.size());
  for (const UtilityQuery& query : queries) {
    requests.push_back({query.condition, query.candidates});
  }
  BAYESCROWD_ASSIGN_OR_RETURN(const std::vector<Counterfactuals> passes,
                              evaluator.EvaluateCounterfactuals(requests));

  std::vector<std::optional<std::vector<double>>> out(queries.size());
  std::uint64_t served = 0;
  std::uint64_t scored = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    if (!passes[q].served) continue;
    const std::vector<Expression>& candidates = *queries[q].candidates;
    const double h_o = BinaryEntropy(queries[q].p_o);
    std::vector<double> gains(candidates.size(), 0.0);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      BAYESCROWD_ASSIGN_OR_RETURN(const double p_e,
                                  evaluator.Probability(candidates[i]));
      gains[i] = Gain(h_o, p_e, passes[q].if_true[i], passes[q].if_false[i]);
    }
    out[q] = std::move(gains);
    ++served;
    scored += candidates.size();
  }
  Count(evaluator, "utility.star_passes", served);
  Count(evaluator, "utility.star_candidates", scored);
  return out;
}

}  // namespace bayescrowd
