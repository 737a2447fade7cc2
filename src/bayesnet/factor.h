// Factor: a non-negative function over an ordered subset of discrete
// variables, the workhorse of variable-elimination inference.

#ifndef BAYESCROWD_BAYESNET_FACTOR_H_
#define BAYESCROWD_BAYESNET_FACTOR_H_

#include <cstddef>
#include <vector>

#include "data/value.h"

namespace bayescrowd {

/// Visits every assignment of a scope in flat order (the last variable
/// varying fastest) while keeping two flat indices into other row-major
/// tables in step: when variable i moves by one, index k moves by that
/// variable's stride in table k (0 if table k does not depend on it).
/// The factor kernels walk their scopes with it instead of decoding an
/// assignment per entry.
class ScopeOdometer {
 public:
  explicit ScopeOdometer(std::size_t start0 = 0, std::size_t start1 = 0)
      : index0_(start0), index1_(start1) {}

  /// Appends the next variable of the walked scope (in scope order).
  void AddVariable(Level cardinality, std::size_t stride0,
                   std::size_t stride1 = 0) {
    dims_.push_back({static_cast<std::size_t>(cardinality), 0, stride0,
                     stride1});
  }

  std::size_t index0() const { return index0_; }
  std::size_t index1() const { return index1_; }

  /// Moves to the next assignment; after the last one every digit wraps
  /// back to zero and the indices return to their start.
  void Next() {
    for (std::size_t i = dims_.size(); i-- > 0;) {
      Dim& d = dims_[i];
      index0_ += d.stride0;
      index1_ += d.stride1;
      if (++d.digit < d.card) return;
      d.digit = 0;
      index0_ -= d.stride0 * d.card;
      index1_ -= d.stride1 * d.card;
    }
  }

 private:
  struct Dim {
    std::size_t card;
    std::size_t digit;
    std::size_t stride0;
    std::size_t stride1;
  };
  std::vector<Dim> dims_;
  std::size_t index0_;
  std::size_t index1_;
};

/// Dense tabular factor. Variables are identified by node index and kept
/// sorted ascending; values are stored with the *last* variable varying
/// fastest (row-major in variable order).
class Factor {
 public:
  Factor() = default;

  /// `cardinalities[i]` is the domain size of variables[i]. `variables`
  /// must be sorted ascending and duplicate-free. Values start at zero.
  Factor(std::vector<std::size_t> variables,
         std::vector<Level> cardinalities);

  const std::vector<std::size_t>& variables() const { return variables_; }
  const std::vector<Level>& cardinalities() const { return cards_; }
  std::size_t size() const { return values_.size(); }

  double& At(std::size_t flat_index) { return values_[flat_index]; }
  double At(std::size_t flat_index) const { return values_[flat_index]; }

  /// Flat index of an assignment (one level per variable, in variable
  /// order).
  std::size_t IndexOf(const std::vector<Level>& assignment) const;

  /// Decodes a flat index into per-variable levels.
  std::vector<Level> AssignmentOf(std::size_t flat_index) const;

  /// Pointwise product. The result's scope is the union of scopes.
  static Factor Product(const Factor& a, const Factor& b);

  /// Sums out `variable` (which must be in scope).
  Factor Marginalize(std::size_t variable) const;

  /// Restricts `variable` to `value` and drops it from the scope.
  Factor Reduce(std::size_t variable, Level value) const;

  /// Scales so entries sum to one; a uniform factor results if the total
  /// is zero (degenerate evidence).
  void Normalize();

  bool ContainsVariable(std::size_t variable) const;

 private:
  std::vector<std::size_t> variables_;  // sorted ascending
  std::vector<Level> cards_;
  std::vector<double> values_;
};

}  // namespace bayescrowd

#endif  // BAYESCROWD_BAYESNET_FACTOR_H_
