// Conditional probability table P(X | Parents(X)) for one node of a
// discrete Bayesian network.

#ifndef BAYESCROWD_BAYESNET_CPT_H_
#define BAYESCROWD_BAYESNET_CPT_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "data/value.h"

namespace bayescrowd {

/// CPT storage: for each parent configuration (mixed-radix index over the
/// parents in their stored order), a normalized distribution over the
/// node's own domain.
class Cpt {
 public:
  Cpt() = default;

  /// `parent_cardinalities[i]` is the domain size of parents[i];
  /// `cardinality` the node's own domain size. Probabilities start
  /// uniform.
  Cpt(std::size_t node, Level cardinality, std::vector<std::size_t> parents,
      std::vector<Level> parent_cardinalities);

  std::size_t node() const { return node_; }
  Level cardinality() const { return cardinality_; }
  const std::vector<std::size_t>& parents() const { return parents_; }
  std::size_t num_parent_configs() const { return num_configs_; }

  /// Mixed-radix index of a full parent assignment. `parent_values[i]`
  /// corresponds to parents()[i].
  std::size_t ConfigIndex(const std::vector<Level>& parent_values) const;

  double Prob(Level value, std::size_t config) const {
    return probs_[config * static_cast<std::size_t>(cardinality_) +
                  static_cast<std::size_t>(value)];
  }

  /// Distribution over the node's values for one parent configuration.
  std::vector<double> Distribution(std::size_t config) const;

  /// Resets the table to all-zero counts; call before a fitting pass of
  /// AddCount() + NormalizeWithPrior().
  void ClearCounts();

  /// Accumulates one observation (used by the fitting code).
  void AddCount(Level value, std::size_t config, double weight = 1.0);

  /// Converts accumulated counts to probabilities with a symmetric
  /// Dirichlet prior of strength `alpha` per cell.
  void NormalizeWithPrior(double alpha);

  /// Overwrites one parent configuration's distribution (must be
  /// normalized; used by deserialization).
  Status SetDistribution(std::size_t config,
                         const std::vector<double>& probabilities);

 private:
  std::size_t node_ = 0;
  Level cardinality_ = 0;
  std::vector<std::size_t> parents_;
  std::vector<Level> parent_cards_;
  std::size_t num_configs_ = 1;
  std::vector<double> probs_;  // counts during fitting, probs after.
};

}  // namespace bayescrowd

#endif  // BAYESCROWD_BAYESNET_CPT_H_
