#include "probability/distributions.h"

#include <cmath>

#include "common/string_util.h"

namespace bayescrowd {
namespace {

double TailMassGreater(const double* dist, std::size_t size, Level bound) {
  double p = 0.0;
  for (std::size_t v = 0; v < size; ++v) {
    if (static_cast<Level>(v) > bound) p += dist[v];
  }
  return p;
}

double HeadMassLess(const double* dist, std::size_t size, Level bound) {
  double p = 0.0;
  for (std::size_t v = 0; v < size; ++v) {
    if (static_cast<Level>(v) < bound) p += dist[v];
  }
  return p;
}

double CrossMass(const double* lhs, std::size_t lhs_size, const double* rhs,
                 std::size_t rhs_size, CmpOp op) {
  // Integrate P(lhs op rhs) with a suffix/prefix sum over rhs.
  double p = 0.0;
  if (op == CmpOp::kGreater) {
    // P(lhs > rhs) = sum_a p_l(a) * P(rhs < a).
    double rhs_prefix = 0.0;  // P(rhs < a), built incrementally.
    for (std::size_t a = 0; a < lhs_size; ++a) {
      if (a > 0 && a - 1 < rhs_size) rhs_prefix += rhs[a - 1];
      p += lhs[a] * rhs_prefix;
    }
  } else {
    // P(lhs < rhs) = sum_a p_l(a) * P(rhs > a).
    double rhs_suffix = 0.0;
    for (std::size_t b = 1; b < rhs_size; ++b) rhs_suffix += rhs[b];
    for (std::size_t a = 0; a < lhs_size; ++a) {
      p += lhs[a] * rhs_suffix;
      if (a + 1 < rhs_size) rhs_suffix -= rhs[a + 1];
    }
  }
  return p;
}

}  // namespace

Status DistributionMap::Set(const CellRef& var,
                            std::vector<double> distribution) {
  if (distribution.empty()) {
    return Status::InvalidArgument("empty distribution");
  }
  double total = 0.0;
  for (double p : distribution) {
    if (p < 0.0 || std::isnan(p)) {
      return Status::InvalidArgument("negative or NaN probability");
    }
    total += p;
  }
  if (std::abs(total - 1.0) > 1e-6) {
    return Status::InvalidArgument(
        StrFormat("distribution sums to %f, expected 1", total));
  }
  map_[PackVar(var)] = std::move(distribution);
  return Status::OK();
}

Result<std::vector<double>> DistributionMap::Get(const CellRef& var) const {
  const auto it = map_.find(PackVar(var));
  if (it == map_.end()) {
    return Status::NotFound(StrFormat("no distribution for Var(%zu,%zu)",
                                      var.object, var.attribute));
  }
  return it->second;
}

const std::vector<double>* DistributionMap::Find(const CellRef& var) const {
  const auto it = map_.find(PackVar(var));
  return it == map_.end() ? nullptr : &it->second;
}

Result<double> DistributionMap::ProbGreater(const CellRef& var,
                                            Level bound) const {
  const std::vector<double>* dist = Find(var);
  if (dist == nullptr) {
    return Status::NotFound("unregistered variable");
  }
  return TailMassGreater(dist->data(), dist->size(), bound);
}

Result<double> DistributionMap::ProbLess(const CellRef& var,
                                         Level bound) const {
  const std::vector<double>* dist = Find(var);
  if (dist == nullptr) {
    return Status::NotFound("unregistered variable");
  }
  return HeadMassLess(dist->data(), dist->size(), bound);
}

Result<double> ExpressionProbability(const Expression& expression,
                                     const DistributionMap& dists) {
  if (!expression.rhs_is_var) {
    return expression.op == CmpOp::kGreater
               ? dists.ProbGreater(expression.lhs, expression.rhs_const)
               : dists.ProbLess(expression.lhs, expression.rhs_const);
  }
  const std::vector<double>* lhs = dists.Find(expression.lhs);
  const std::vector<double>* rhs = dists.Find(expression.rhs_var);
  if (lhs == nullptr || rhs == nullptr) {
    return Status::NotFound("unregistered variable in var-var expression");
  }
  return CrossMass(lhs->data(), lhs->size(), rhs->data(), rhs->size(),
                   expression.op);
}

}  // namespace bayescrowd
