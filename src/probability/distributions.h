// DistributionMap: the per-variable value distributions that probability
// computation integrates over.
//
// Distributions come from the Bayesian-network posteriors (preprocessing
// step), optionally conditioned on crowd knowledge
// (KnowledgeBase::ConditionDistribution). This module is deliberately
// independent of the bayesnet library: it consumes plain vectors.

#ifndef BAYESCROWD_PROBABILITY_DISTRIBUTIONS_H_
#define BAYESCROWD_PROBABILITY_DISTRIBUTIONS_H_

#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "ctable/expression.h"
#include "data/table.h"

namespace bayescrowd {

/// Maps variables (missing cells) to normalized value distributions.
/// Hash-keyed by PackVar: there is no iteration API, so the table's
/// order never reaches a result, and Find's pointers survive rehashing
/// (node-based storage).
class DistributionMap {
 public:
  DistributionMap() = default;

  /// Registers the distribution of `var`. It must be non-empty, have no
  /// negative entries and sum to 1 within tolerance.
  Status Set(const CellRef& var, std::vector<double> distribution);

  bool Contains(const CellRef& var) const {
    return map_.find(PackVar(var)) != map_.end();
  }

  /// Distribution of `var`; NotFound if unregistered.
  Result<std::vector<double>> Get(const CellRef& var) const;

  /// Borrowed pointer for hot paths; nullptr if unregistered.
  const std::vector<double>* Find(const CellRef& var) const;

  std::size_t size() const { return map_.size(); }

  /// P(var > c) / P(var < c) under the registered distribution.
  Result<double> ProbGreater(const CellRef& var, Level bound) const;
  Result<double> ProbLess(const CellRef& var, Level bound) const;

 private:
  std::unordered_map<PackedVar, std::vector<double>> map_;
};

/// P(e) for a single expression, assuming distinct variables are
/// independent (var-var expressions integrate over the product
/// distribution).
Result<double> ExpressionProbability(const Expression& expression,
                                     const DistributionMap& dists);

}  // namespace bayescrowd

#endif  // BAYESCROWD_PROBABILITY_DISTRIBUTIONS_H_
