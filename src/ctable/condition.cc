#include "ctable/condition.h"

#include <algorithm>
#include <unordered_map>

namespace bayescrowd {

Condition Condition::Cnf(std::vector<Conjunct> conjuncts) {
  Condition c;
  for (auto& conj : conjuncts) {
    if (conj.empty()) return Condition::False();
    c.conjuncts_.push_back(std::move(conj));
  }
  c.state_ = c.conjuncts_.empty() ? Truth::kTrue : Truth::kUnknown;
  return c;
}

std::size_t Condition::NumExpressions() const {
  std::size_t total = 0;
  for (const auto& conj : conjuncts_) total += conj.size();
  return total;
}

std::vector<CellRef> Condition::Variables() const {
  std::vector<CellRef> out;
  std::unordered_map<PackedVar, bool> seen;
  seen.reserve(conjuncts_.size() * 2);
  auto add = [&out, &seen](const CellRef& var) {
    if (seen.emplace(PackVar(var), true).second) out.push_back(var);
  };
  for (const auto& conj : conjuncts_) {
    for (const auto& expr : conj) {
      add(expr.lhs);
      if (expr.rhs_is_var) add(expr.rhs_var);
    }
  }
  return out;
}

ConditionFingerprint Condition::Fingerprint() const {
  // Ordered two-lane mixing over (state, conjunct boundaries, canonical
  // expression keys); the order sensitivity matches operator==, which
  // compares conjunct vectors positionally.
  std::uint64_t lo = 0x9E3779B97F4A7C15ULL ^
                     static_cast<std::uint64_t>(state_);
  std::uint64_t hi = 0xC2B2AE3D27D4EB4FULL +
                     static_cast<std::uint64_t>(conjuncts_.size());
  const auto mix = [&lo, &hi](std::uint64_t word) {
    lo = (lo ^ word) * 0x100000001B3ULL;
    hi = (hi + word) * 0x9E3779B97F4A7C15ULL;
    hi ^= hi >> 29;
  };
  for (const auto& conj : conjuncts_) {
    mix(0xD6E8FEB86659FD93ULL ^ conj.size());  // Conjunct boundary.
    for (const auto& expr : conj) {
      const PackedExpr key = expr.PackedKey();
      mix(key.first);
      mix(key.second);
    }
  }
  return {lo, hi};
}

std::size_t Condition::VariableFrequency(const CellRef& var) const {
  std::size_t count = 0;
  for (const auto& conj : conjuncts_) {
    for (const auto& expr : conj) {
      if (expr.lhs == var) ++count;
      if (expr.rhs_is_var && expr.rhs_var == var) ++count;
    }
  }
  return count;
}

CellRef Condition::MostFrequentVariable() const {
  std::unordered_map<PackedVar, std::size_t> freq;
  freq.reserve(conjuncts_.size() * 2);
  CellRef best{};
  std::size_t best_count = 0;
  const auto bump = [&](const CellRef& var) {
    const std::size_t count = ++freq[PackVar(var)];
    if (count > best_count) {
      best_count = count;
      best = var;
    }
  };
  for (const auto& conj : conjuncts_) {
    for (const auto& expr : conj) {
      bump(expr.lhs);
      if (expr.rhs_is_var) bump(expr.rhs_var);
    }
  }
  return best;
}

bool Condition::ConjunctsAreIndependent() const {
  std::unordered_map<PackedVar, std::size_t> owner;
  owner.reserve(conjuncts_.size() * 2);
  for (std::size_t c = 0; c < conjuncts_.size(); ++c) {
    for (const auto& expr : conjuncts_[c]) {
      const auto check = [&owner, c](const CellRef& var) {
        const auto [it, inserted] = owner.emplace(PackVar(var), c);
        return inserted || it->second == c;
      };
      if (!check(expr.lhs)) return false;
      if (expr.rhs_is_var && !check(expr.rhs_var)) return false;
    }
  }
  return true;
}

std::vector<std::vector<std::size_t>> Condition::ConjunctComponents() const {
  const std::size_t m = conjuncts_.size();
  // Union-find over conjuncts, merged through shared variables.
  std::vector<std::size_t> parent(m);
  for (std::size_t i = 0; i < m; ++i) parent[i] = i;
  const auto find = [&parent](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  std::unordered_map<PackedVar, std::size_t> first_seen;
  first_seen.reserve(m * 2);
  for (std::size_t c = 0; c < m; ++c) {
    for (const auto& expr : conjuncts_[c]) {
      const auto link = [&](const CellRef& var) {
        const auto [it, inserted] = first_seen.emplace(PackVar(var), c);
        if (!inserted) parent[find(c)] = find(it->second);
      };
      link(expr.lhs);
      if (expr.rhs_is_var) link(expr.rhs_var);
    }
  }
  // Group conjuncts by root, preserving first-appearance order of roots.
  std::unordered_map<std::size_t, std::size_t> group_index;
  group_index.reserve(m);
  std::vector<std::vector<std::size_t>> out;
  for (std::size_t c = 0; c < m; ++c) {
    const std::size_t root = find(c);
    const auto [it, inserted] = group_index.emplace(root, out.size());
    if (inserted) out.emplace_back();
    out[it->second].push_back(c);
  }
  return out;
}

Condition Condition::SubstituteVariable(const CellRef& var,
                                        Level value) const {
  if (IsDecided()) return *this;
  std::vector<Conjunct> next;
  next.reserve(conjuncts_.size());
  for (const auto& conj : conjuncts_) {
    Conjunct reduced;
    bool satisfied = false;
    for (const auto& expr : conj) {
      const auto [truth, replacement] = expr.Substitute(var, value);
      if (truth == Truth::kTrue) {
        satisfied = true;
        break;
      }
      if (truth == Truth::kFalse) continue;  // Drop falsified disjunct.
      reduced.push_back(*replacement);
    }
    if (satisfied) continue;               // Conjunct holds; drop it.
    if (reduced.empty()) return Condition::False();
    next.push_back(std::move(reduced));
  }
  return Condition::Cnf(std::move(next));
}

bool Condition::Simplify(
    const std::function<Truth(const Expression&)>& evaluate) {
  if (IsDecided()) return false;
  bool changed = false;
  std::size_t kept = 0;  // Conjuncts [0, kept) survive, compacted.
  for (std::size_t c = 0; c < conjuncts_.size(); ++c) {
    Conjunct& conj = conjuncts_[c];
    std::size_t unknown = 0;  // Expressions [0, unknown) survive.
    bool satisfied = false;
    for (std::size_t e = 0; e < conj.size() && !satisfied; ++e) {
      switch (evaluate(conj[e])) {
        case Truth::kTrue:
          satisfied = true;
          break;
        case Truth::kFalse:
          break;  // Drop.
        case Truth::kUnknown:
          if (unknown != e) conj[unknown] = conj[e];
          ++unknown;
          break;
      }
    }
    if (satisfied) {  // The conjunct holds; drop it.
      changed = true;
      continue;
    }
    if (unknown == 0) {  // Every disjunct failed.
      *this = Condition::False();
      return true;
    }
    if (unknown != conj.size()) {
      conj.resize(unknown);
      changed = true;
    }
    if (kept != c) conjuncts_[kept] = std::move(conj);
    ++kept;
  }
  if (kept == 0) {
    *this = Condition::True();
    return true;
  }
  conjuncts_.resize(kept);
  return changed;
}

Condition Condition::SimplifyWith(
    const std::function<Truth(const Expression&)>& evaluate) const {
  Condition out = *this;
  out.Simplify(evaluate);
  return out;
}

std::string Condition::ToString(const Table& table) const {
  if (IsTrue()) return "true";
  if (IsFalse()) return "false";
  std::string out;
  for (std::size_t c = 0; c < conjuncts_.size(); ++c) {
    if (c > 0) out += " & ";
    out += "(";
    for (std::size_t e = 0; e < conjuncts_[c].size(); ++e) {
      if (e > 0) out += " | ";
      out += conjuncts_[c][e].ToString(table);
    }
    out += ")";
  }
  return out;
}

bool operator==(const Condition& a, const Condition& b) {
  if (a.state_ != b.state_) return false;
  if (a.state_ != Truth::kUnknown) return true;
  if (a.conjuncts_.size() != b.conjuncts_.size()) return false;
  for (std::size_t c = 0; c < a.conjuncts_.size(); ++c) {
    if (a.conjuncts_[c].size() != b.conjuncts_[c].size()) return false;
    for (std::size_t e = 0; e < a.conjuncts_[c].size(); ++e) {
      if (!(a.conjuncts_[c][e] == b.conjuncts_[c][e])) return false;
    }
  }
  return true;
}

}  // namespace bayescrowd
