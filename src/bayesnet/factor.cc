#include "bayesnet/factor.h"

#include <algorithm>
#include <cassert>

namespace bayescrowd {
namespace {

// Row-major strides of a scope: how far the flat index moves when
// variable i moves by one (the last variable varies fastest).
std::vector<std::size_t> Strides(const std::vector<Level>& cards) {
  std::vector<std::size_t> strides(cards.size());
  std::size_t stride = 1;
  for (std::size_t i = cards.size(); i-- > 0;) {
    strides[i] = stride;
    stride *= static_cast<std::size_t>(cards[i]);
  }
  return strides;
}

}  // namespace

Factor::Factor(std::vector<std::size_t> variables,
               std::vector<Level> cardinalities)
    : variables_(std::move(variables)), cards_(std::move(cardinalities)) {
  assert(variables_.size() == cards_.size());
  assert(std::is_sorted(variables_.begin(), variables_.end()));
  std::size_t total = 1;
  for (Level c : cards_) total *= static_cast<std::size_t>(c);
  values_.assign(total, 0.0);
}

std::size_t Factor::IndexOf(const std::vector<Level>& assignment) const {
  assert(assignment.size() == variables_.size());
  std::size_t index = 0;
  for (std::size_t i = 0; i < variables_.size(); ++i) {
    index = index * static_cast<std::size_t>(cards_[i]) +
            static_cast<std::size_t>(assignment[i]);
  }
  return index;
}

std::vector<Level> Factor::AssignmentOf(std::size_t flat_index) const {
  std::vector<Level> assignment(variables_.size());
  for (std::size_t i = variables_.size(); i-- > 0;) {
    const auto card = static_cast<std::size_t>(cards_[i]);
    assignment[i] = static_cast<Level>(flat_index % card);
    flat_index /= card;
  }
  return assignment;
}

bool Factor::ContainsVariable(std::size_t variable) const {
  return std::binary_search(variables_.begin(), variables_.end(), variable);
}

Factor Factor::Product(const Factor& a, const Factor& b) {
  // Union scope, sorted; the odometer tracks the matching entries of a
  // (index0) and b (index1) as the output is filled in flat order.
  const std::vector<std::size_t> a_strides = Strides(a.cards_);
  const std::vector<std::size_t> b_strides = Strides(b.cards_);
  std::vector<std::size_t> vars;
  std::vector<Level> cards;
  ScopeOdometer walk;
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < a.variables_.size() || ib < b.variables_.size()) {
    if (ib == b.variables_.size() ||
        (ia < a.variables_.size() && a.variables_[ia] < b.variables_[ib])) {
      vars.push_back(a.variables_[ia]);
      cards.push_back(a.cards_[ia]);
      walk.AddVariable(a.cards_[ia], a_strides[ia], 0);
      ++ia;
    } else if (ia == a.variables_.size() ||
               b.variables_[ib] < a.variables_[ia]) {
      vars.push_back(b.variables_[ib]);
      cards.push_back(b.cards_[ib]);
      walk.AddVariable(b.cards_[ib], 0, b_strides[ib]);
      ++ib;
    } else {
      assert(a.cards_[ia] == b.cards_[ib]);
      vars.push_back(a.variables_[ia]);
      cards.push_back(a.cards_[ia]);
      walk.AddVariable(a.cards_[ia], a_strides[ia], b_strides[ib]);
      ++ia;
      ++ib;
    }
  }
  Factor out(std::move(vars), std::move(cards));
  for (double& value : out.values_) {
    value = a.values_[walk.index0()] * b.values_[walk.index1()];
    walk.Next();
  }
  return out;
}

Factor Factor::Marginalize(std::size_t variable) const {
  const auto it =
      std::lower_bound(variables_.begin(), variables_.end(), variable);
  assert(it != variables_.end() && *it == variable);
  const auto pos = static_cast<std::size_t>(it - variables_.begin());

  std::vector<std::size_t> vars = variables_;
  std::vector<Level> cards = cards_;
  vars.erase(vars.begin() + static_cast<std::ptrdiff_t>(pos));
  cards.erase(cards.begin() + static_cast<std::ptrdiff_t>(pos));
  Factor out(std::move(vars), std::move(cards));

  // Walk this factor in flat order; index0 is the output entry the
  // current one sums into (the summed-out variable does not move it), so
  // each output entry accumulates its terms in ascending flat order.
  const std::vector<std::size_t> out_strides = Strides(out.cards_);
  ScopeOdometer walk;
  for (std::size_t i = 0; i < variables_.size(); ++i) {
    walk.AddVariable(cards_[i],
                     i == pos ? 0 : out_strides[i < pos ? i : i - 1]);
  }
  for (double value : values_) {
    out.values_[walk.index0()] += value;
    walk.Next();
  }
  return out;
}

Factor Factor::Reduce(std::size_t variable, Level value) const {
  const auto it =
      std::lower_bound(variables_.begin(), variables_.end(), variable);
  assert(it != variables_.end() && *it == variable);
  const auto pos = static_cast<std::size_t>(it - variables_.begin());

  std::vector<std::size_t> vars = variables_;
  std::vector<Level> cards = cards_;
  vars.erase(vars.begin() + static_cast<std::ptrdiff_t>(pos));
  cards.erase(cards.begin() + static_cast<std::ptrdiff_t>(pos));
  Factor out(std::move(vars), std::move(cards));

  // index0 walks the entries of this factor that have `variable` fixed.
  const std::vector<std::size_t> strides = Strides(cards_);
  ScopeOdometer walk(static_cast<std::size_t>(value) * strides[pos]);
  for (std::size_t i = 0; i < variables_.size(); ++i) {
    if (i != pos) walk.AddVariable(cards_[i], strides[i]);
  }
  for (double& entry : out.values_) {
    entry = values_[walk.index0()];
    walk.Next();
  }
  return out;
}

void Factor::Normalize() {
  double total = 0.0;
  for (double v : values_) total += v;
  if (total <= 0.0) {
    const double uniform = 1.0 / static_cast<double>(values_.size());
    for (double& v : values_) v = uniform;
    return;
  }
  for (double& v : values_) v /= total;
}

}  // namespace bayescrowd
