#include "bayesnet/network.h"

#include <cmath>

#include "common/string_util.h"

namespace bayescrowd {

Result<BayesianNetwork> BayesianNetwork::Create(const Schema& schema,
                                                const Dag& structure) {
  if (structure.num_nodes() != schema.num_attributes()) {
    return Status::InvalidArgument(StrFormat(
        "DAG has %zu nodes, schema has %zu attributes",
        structure.num_nodes(), schema.num_attributes()));
  }
  BayesianNetwork net;
  net.schema_ = schema;
  net.dag_ = structure;
  net.cpts_.reserve(schema.num_attributes());
  for (std::size_t node = 0; node < schema.num_attributes(); ++node) {
    const auto& parents = structure.parents(node);
    std::vector<Level> parent_cards;
    parent_cards.reserve(parents.size());
    for (std::size_t p : parents) {
      parent_cards.push_back(schema.domain_size(p));
    }
    net.cpts_.emplace_back(node, schema.domain_size(node), parents,
                           std::move(parent_cards));
  }
  return net;
}

Status BayesianNetwork::FitParameters(const Table& data, double alpha) {
  if (!(data.schema() == schema_)) {
    return Status::InvalidArgument("data schema differs from network schema");
  }
  if (alpha <= 0.0) {
    return Status::InvalidArgument("Dirichlet alpha must be positive");
  }
  std::vector<Level> parent_values;
  for (Cpt& cpt : cpts_) {
    cpt.ClearCounts();
    const std::size_t node = cpt.node();
    for (std::size_t i = 0; i < data.num_objects(); ++i) {
      const Level value = data.At(i, node);
      if (IsMissingLevel(value)) continue;
      parent_values.clear();
      bool usable = true;
      for (std::size_t p : cpt.parents()) {
        const Level pv = data.At(i, p);
        if (IsMissingLevel(pv)) {
          usable = false;
          break;
        }
        parent_values.push_back(pv);
      }
      if (!usable) continue;
      cpt.AddCount(value, cpt.ConfigIndex(parent_values));
    }
    cpt.NormalizeWithPrior(alpha);
  }
  return Status::OK();
}

double BayesianNetwork::LogJointProbability(
    const std::vector<Level>& row) const {
  double log_prob = 0.0;
  std::vector<Level> parent_values;
  for (const Cpt& cpt : cpts_) {
    parent_values.clear();
    for (std::size_t p : cpt.parents()) parent_values.push_back(row[p]);
    log_prob +=
        std::log(cpt.Prob(row[cpt.node()], cpt.ConfigIndex(parent_values)));
  }
  return log_prob;
}

}  // namespace bayescrowd
