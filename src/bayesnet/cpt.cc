#include "bayesnet/cpt.h"

#include <cassert>
#include <cmath>

#include "common/string_util.h"

namespace bayescrowd {

Cpt::Cpt(std::size_t node, Level cardinality,
         std::vector<std::size_t> parents,
         std::vector<Level> parent_cardinalities)
    : node_(node),
      cardinality_(cardinality),
      parents_(std::move(parents)),
      parent_cards_(std::move(parent_cardinalities)) {
  assert(parents_.size() == parent_cards_.size());
  for (Level card : parent_cards_) {
    num_configs_ *= static_cast<std::size_t>(card);
  }
  probs_.assign(num_configs_ * static_cast<std::size_t>(cardinality_),
                1.0 / static_cast<double>(cardinality_));
}

std::size_t Cpt::ConfigIndex(const std::vector<Level>& parent_values) const {
  assert(parent_values.size() == parents_.size());
  std::size_t index = 0;
  for (std::size_t i = 0; i < parents_.size(); ++i) {
    assert(parent_values[i] >= 0 && parent_values[i] < parent_cards_[i]);
    index = index * static_cast<std::size_t>(parent_cards_[i]) +
            static_cast<std::size_t>(parent_values[i]);
  }
  return index;
}

std::vector<double> Cpt::Distribution(std::size_t config) const {
  const auto card = static_cast<std::size_t>(cardinality_);
  std::vector<double> out(card);
  for (std::size_t v = 0; v < card; ++v) {
    out[v] = probs_[config * card + v];
  }
  return out;
}

void Cpt::ClearCounts() {
  probs_.assign(probs_.size(), 0.0);
}

void Cpt::AddCount(Level value, std::size_t config, double weight) {
  probs_[config * static_cast<std::size_t>(cardinality_) +
         static_cast<std::size_t>(value)] += weight;
}

void Cpt::NormalizeWithPrior(double alpha) {
  const auto card = static_cast<std::size_t>(cardinality_);
  for (std::size_t c = 0; c < num_configs_; ++c) {
    double total = 0.0;
    for (std::size_t v = 0; v < card; ++v) {
      total += probs_[c * card + v] + alpha;
    }
    for (std::size_t v = 0; v < card; ++v) {
      probs_[c * card + v] = (probs_[c * card + v] + alpha) / total;
    }
  }
}

Status Cpt::SetDistribution(std::size_t config,
                            const std::vector<double>& probabilities) {
  const auto card = static_cast<std::size_t>(cardinality_);
  if (config >= num_configs_) {
    return Status::OutOfRange("parent configuration out of range");
  }
  if (probabilities.size() != card) {
    return Status::InvalidArgument("distribution size mismatch");
  }
  double total = 0.0;
  for (double p : probabilities) {
    if (p < 0.0 || std::isnan(p)) {
      return Status::InvalidArgument("negative or NaN probability");
    }
    total += p;
  }
  if (std::abs(total - 1.0) > 1e-6) {
    return Status::InvalidArgument(
        StrFormat("distribution sums to %f, expected 1", total));
  }
  for (std::size_t v = 0; v < card; ++v) {
    probs_[config * card + v] = probabilities[v];
  }
  return Status::OK();
}

}  // namespace bayescrowd
