// Posterior inference over a fitted Bayesian network.
//
// The BayesCrowd preprocessing step "learns the probability distributions
// of missing values leveraging Bayes rules"; concretely this is
// P(X_j | observed attributes of the row), computed exactly by variable
// elimination (the network is over at most ~11 attributes).

#ifndef BAYESCROWD_BAYESNET_INFERENCE_H_
#define BAYESCROWD_BAYESNET_INFERENCE_H_

#include <map>
#include <vector>

#include "bayesnet/network.h"
#include "common/result.h"

namespace bayescrowd {

/// Evidence: node index -> observed level.
using Evidence = std::map<std::size_t, Level>;

/// Exact posterior P(query | evidence) via variable elimination with a
/// min-degree elimination order, over only the part of the network the
/// evidence leaves connected to the query (see docs/algorithms.md).
/// Returns a normalized distribution of length domain_size(query).
Result<std::vector<double>> VariableElimination(const BayesianNetwork& net,
                                                const Evidence& evidence,
                                                std::size_t query);

}  // namespace bayescrowd

#endif  // BAYESCROWD_BAYESNET_INFERENCE_H_
