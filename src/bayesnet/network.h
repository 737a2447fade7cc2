// BayesianNetwork: a fitted discrete Bayesian network over the
// attributes of a Table.
//
// The paper trains its network with Banjo (structure) and Infer.Net
// (parameters); here structure learning lives in structure_learning.h
// and parameters are fitted by maximum likelihood with a Dirichlet
// prior.

#ifndef BAYESCROWD_BAYESNET_NETWORK_H_
#define BAYESCROWD_BAYESNET_NETWORK_H_

#include <vector>

#include "bayesnet/cpt.h"
#include "bayesnet/dag.h"
#include "common/result.h"
#include "data/table.h"

namespace bayescrowd {

/// A discrete Bayesian network with one node per table attribute.
class BayesianNetwork {
 public:
  BayesianNetwork() = default;

  /// Builds the network skeleton for `schema` over `structure` with
  /// uniform CPTs. The DAG must have one node per attribute.
  static Result<BayesianNetwork> Create(const Schema& schema,
                                        const Dag& structure);

  /// Fits CPT parameters by maximum likelihood with a symmetric
  /// Dirichlet(alpha) prior. Rows where the node or any of its parents
  /// is missing are skipped for that node's family (available-case
  /// analysis).
  Status FitParameters(const Table& data, double alpha = 1.0);

  const Schema& schema() const { return schema_; }
  const Dag& structure() const { return dag_; }
  const Cpt& cpt(std::size_t node) const { return cpts_[node]; }
  std::size_t num_nodes() const { return cpts_.size(); }

  /// log P(row) for a complete assignment (one level per attribute).
  double LogJointProbability(const std::vector<Level>& row) const;

 private:
  Schema schema_;
  Dag dag_;
  std::vector<Cpt> cpts_;
};

}  // namespace bayescrowd

#endif  // BAYESCROWD_BAYESNET_NETWORK_H_
