#include "ctable/knowledge.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"

namespace bayescrowd {

const char* OrderingToString(Ordering ordering) {
  switch (ordering) {
    case Ordering::kLess:
      return "<";
    case Ordering::kEqual:
      return "=";
    case Ordering::kGreater:
      return ">";
  }
  return "?";
}

Status ReadOrdering(BinReader* reader, Ordering* out) {
  std::uint8_t value = 0;
  BAYESCROWD_RETURN_NOT_OK(reader->ReadU8(&value));
  if (value > static_cast<std::uint8_t>(Ordering::kGreater)) {
    return Status::OutOfRange("bad relation byte");
  }
  *out = static_cast<Ordering>(value);
  return Status::OK();
}

std::pair<Level, Level> KnowledgeBase::Bounds(const CellRef& var) const {
  const auto it = intervals_.find(var);
  if (it != intervals_.end()) return it->second;
  return {0, schema_.domain_size(var.attribute) - 1};
}

bool KnowledgeBase::IsPinned(const CellRef& var, Level* value) const {
  const auto [lo, hi] = Bounds(var);
  if (lo != hi) return false;
  if (value != nullptr) *value = lo;
  return true;
}

void KnowledgeBase::Narrow(const CellRef& var, Level lo, Level hi) {
  const auto [cur_lo, cur_hi] = Bounds(var);
  Level new_lo = std::max(cur_lo, lo);
  Level new_hi = std::min(cur_hi, hi);
  if (new_lo > new_hi) {
    // Contradiction with earlier knowledge (imperfect workers):
    // newest-wins — keep the new fact, clamped to the domain.
    BAYESCROWD_LOG(Info) << "conflicting crowd facts for Var("
                         << var.object << "," << var.attribute
                         << "); keeping newest";
    new_lo = std::max<Level>(lo, 0);
    new_hi = std::min<Level>(hi, schema_.domain_size(var.attribute) - 1);
  }
  intervals_[var] = {new_lo, new_hi};
}

Status KnowledgeBase::RestrictLess(const CellRef& var, Level bound) {
  if (bound <= 0) {
    return Status::InvalidArgument(
        StrFormat("Var < %d impossible in domain [0, %d)", bound,
                  schema_.domain_size(var.attribute)));
  }
  Narrow(var, 0, bound - 1);
  return Status::OK();
}

Status KnowledgeBase::RestrictGreater(const CellRef& var, Level bound) {
  const Level max = schema_.domain_size(var.attribute) - 1;
  if (bound >= max) {
    return Status::InvalidArgument(
        StrFormat("Var > %d impossible in domain [0, %d]", bound, max));
  }
  Narrow(var, bound + 1, max);
  return Status::OK();
}

Status KnowledgeBase::RestrictEqual(const CellRef& var, Level value) {
  const Level max = schema_.domain_size(var.attribute) - 1;
  if (value < 0 || value > max) {
    return Status::OutOfRange(
        StrFormat("Var = %d outside domain [0, %d]", value, max));
  }
  Narrow(var, value, value);
  return Status::OK();
}

Status KnowledgeBase::RecordVarOrder(const CellRef& a, const CellRef& b,
                                     Ordering ordering) {
  if (a == b) return Status::InvalidArgument("var-var fact on one variable");
  std::pair<CellRef, CellRef> key(a, b);
  Ordering stored = ordering;
  if (b < a) {
    key = {b, a};
    if (ordering == Ordering::kLess) stored = Ordering::kGreater;
    if (ordering == Ordering::kGreater) stored = Ordering::kLess;
  }
  const auto it = orders_.find(key);
  if (it != orders_.end() && it->second != stored) {
    return Status::InvalidArgument(StrFormat(
        "contradictory var-var fact: Var(%zu,%zu) %s Var(%zu,%zu) "
        "conflicts with recorded %s",
        a.object, a.attribute, OrderingToString(ordering), b.object,
        b.attribute, OrderingToString(it->second)));
  }
  orders_[key] = stored;
  return Status::OK();
}

Truth KnowledgeBase::Evaluate(const Expression& expression) const {
  const auto [lhs_lo, lhs_hi] = Bounds(expression.lhs);

  if (!expression.rhs_is_var) {
    const Level c = expression.rhs_const;
    if (expression.op == CmpOp::kGreater) {
      if (lhs_lo > c) return Truth::kTrue;
      if (lhs_hi <= c) return Truth::kFalse;
    } else {
      if (lhs_hi < c) return Truth::kTrue;
      if (lhs_lo >= c) return Truth::kFalse;
    }
    return Truth::kUnknown;
  }

  // Var-var: check recorded order facts first.
  std::pair<CellRef, CellRef> key(expression.lhs, expression.rhs_var);
  bool flipped = false;
  if (key.second < key.first) {
    std::swap(key.first, key.second);
    flipped = true;
  }
  const auto it = orders_.find(key);
  if (it != orders_.end()) {
    Ordering ord = it->second;  // key.first relative to key.second.
    if (flipped) {
      if (ord == Ordering::kLess) ord = Ordering::kGreater;
      else if (ord == Ordering::kGreater) ord = Ordering::kLess;
    }
    // `ord` is now lhs relative to rhs.
    if (expression.op == CmpOp::kGreater) {
      return TruthOf(ord == Ordering::kGreater);
    }
    return TruthOf(ord == Ordering::kLess);
  }

  // Fall back to interval separation.
  const auto [rhs_lo, rhs_hi] = Bounds(expression.rhs_var);
  if (expression.op == CmpOp::kGreater) {
    if (lhs_lo > rhs_hi) return Truth::kTrue;
    if (lhs_hi <= rhs_lo) return Truth::kFalse;
  } else {
    if (lhs_hi < rhs_lo) return Truth::kTrue;
    if (lhs_lo >= rhs_hi) return Truth::kFalse;
  }
  return Truth::kUnknown;
}

std::vector<double> KnowledgeBase::ConditionDistribution(
    const CellRef& var, const std::vector<double>& raw) const {
  const auto [lo, hi] = Bounds(var);
  std::vector<double> out(raw.size(), 0.0);
  double total = 0.0;
  for (std::size_t v = 0; v < raw.size(); ++v) {
    const auto level = static_cast<Level>(v);
    if (level < lo || level > hi) continue;
    out[v] = raw[v];
    total += raw[v];
  }
  if (total <= 0.0) {
    const double uniform =
        1.0 / static_cast<double>(hi - lo + 1);
    for (Level v = lo; v <= hi; ++v) {
      out[static_cast<std::size_t>(v)] = uniform;
    }
    return out;
  }
  for (double& p : out) p /= total;
  return out;
}

}  // namespace bayescrowd
