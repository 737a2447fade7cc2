#include "probability/star.h"

#include "common/string_util.h"

namespace bayescrowd {

bool BuildStarPlan(const Condition& condition, const DistributionMap& dists,
                   std::size_t max_hub_space, StarPlan* plan,
                   StarScratch* scratch, Status* status) {
  *status = Status::OK();

  // Hub discovery.
  auto& occurrences = scratch->occurrences;
  auto& order = scratch->order;
  auto& hub_slot = scratch->hub_slot;
  occurrences.clear();
  order.clear();
  hub_slot.clear();
  occurrences.reserve(condition.conjuncts().size() * 2);
  for (const Conjunct& conj : condition.conjuncts()) {
    for (const Expression& e : conj) {
      if (++occurrences[PackVar(e.lhs)] == 1) order.push_back(e.lhs);
      if (e.rhs_is_var && ++occurrences[PackVar(e.rhs_var)] == 1) {
        order.push_back(e.rhs_var);
      }
    }
  }
  plan->hub.clear();
  for (const CellRef& var : order) {
    if (occurrences[PackVar(var)] >= 2) {
      hub_slot[PackVar(var)] = static_cast<int>(plan->hub.size());
      plan->hub.push_back(var);
    }
  }
  if (plan->hub.size() > 16) return false;

  // Joint-domain bound.
  plan->hub_sizes.clear();
  std::size_t space = 1;
  for (const CellRef& var : plan->hub) {
    const std::vector<double>* dist = dists.Find(var);
    if (dist == nullptr) {
      *status = Status::NotFound(StrFormat("no distribution for Var(%zu,%zu)",
                                           var.object, var.attribute));
      return true;  // Applicable, but errored.
    }
    if (space > max_hub_space / dist->size()) return false;
    space *= dist->size();
    plan->hub_sizes.push_back(static_cast<std::uint32_t>(dist->size()));
  }
  plan->space = space;

  // Classify expressions. Values (constants, tables) are EvalStarPlan's
  // job; only slots, offsets and the original expressions live here.
  plan->exprs.clear();
  plan->conjunct_offsets.clear();
  plan->table_slots = 0;
  for (const Conjunct& conj : condition.conjuncts()) {
    plan->conjunct_offsets.push_back(
        static_cast<std::uint32_t>(plan->exprs.size()));
    for (const Expression& e : conj) {
      StarExpr ce;
      const auto lhs_it = hub_slot.find(PackVar(e.lhs));
      const int lslot = lhs_it == hub_slot.end() ? -1 : lhs_it->second;
      int rslot = -1;
      if (e.rhs_is_var) {
        const auto rhs_it = hub_slot.find(PackVar(e.rhs_var));
        rslot = rhs_it == hub_slot.end() ? -1 : rhs_it->second;
      }
      if (lslot < 0 && rslot < 0) {
        // Private-only: constant probability, refilled per eval.
        ce.kind = StarExpr::Kind::kConstant;
        ce.expr = e;
      } else if (lslot >= 0 && (!e.rhs_is_var || rslot >= 0)) {
        // Fully decided per hub assignment.
        ce.kind = StarExpr::Kind::kDecided;
        ce.lhs_slot = lslot;
        ce.rhs_slot = rslot;
        ce.op = e.op;
        ce.rhs_is_var = e.rhs_is_var;
        ce.rhs_const = e.rhs_const;
      } else {
        // Exactly one hub variable: tabulated over its values per eval.
        ce.kind = StarExpr::Kind::kTablePrime;
        ce.hub_is_lhs = lslot >= 0;
        ce.lhs_slot = ce.hub_is_lhs ? lslot : rslot;  // Table slot.
        ce.expr = e;
        ce.table_size =
            plan->hub_sizes[static_cast<std::size_t>(ce.lhs_slot)];
        ce.table_offset = static_cast<std::uint32_t>(plan->table_slots);
        plan->table_slots += ce.table_size;
      }
      plan->exprs.push_back(ce);
    }
  }
  plan->conjunct_offsets.push_back(
      static_cast<std::uint32_t>(plan->exprs.size()));
  return true;
}

namespace {

// Truth of a kDecided expression under hub assignment h.
bool DecidedTruth(const StarExpr& ce, const std::vector<Level>& h) {
  const Level lhs = h[static_cast<std::size_t>(ce.lhs_slot)];
  const Level rhs = ce.rhs_slot >= 0
                        ? h[static_cast<std::size_t>(ce.rhs_slot)]
                        : ce.rhs_const;
  return (ce.op == CmpOp::kGreater) ? lhs > rhs : lhs < rhs;
}

// Pr(e | h) of a kConstant or kTablePrime expression (flat index e).
double ProbGivenHub(const StarExpr& ce, std::size_t e,
                    const StarScratch& scratch) {
  if (ce.kind == StarExpr::Kind::kConstant) return scratch.const_probs[e];
  return scratch.tables[ce.table_offset +
                        static_cast<std::size_t>(
                            scratch.h[static_cast<std::size_t>(
                                ce.lhs_slot)])];
}

// p(h) of the odometer's current hub assignment.
double HubWeight(const StarPlan& plan, const StarScratch& scratch) {
  double weight = 1.0;
  for (std::size_t i = 0; i < plan.hub.size(); ++i) {
    weight *=
        (*scratch.hub_dists[i])[static_cast<std::size_t>(scratch.h[i])];
  }
  return weight;
}

// Advances the odometer over the hub's joint domain.
void NextHubAssignment(const StarPlan& plan, StarScratch* scratch) {
  for (std::size_t i = 0; i < plan.hub.size(); ++i) {
    if (++scratch->h[i] <
        static_cast<Level>(scratch->hub_dists[i]->size())) {
      return;
    }
    scratch->h[i] = 0;
  }
}

// Resolves the hub distributions and fills the plan's per-expression
// constants and tables from `dists` into `scratch`.
Status FillStarPlan(const StarPlan& plan, const DistributionMap& dists,
                    StarScratch* scratch) {
  // Hub distributions, re-resolved and arity-checked against the plan.
  scratch->hub_dists.resize(plan.hub.size());
  for (std::size_t i = 0; i < plan.hub.size(); ++i) {
    scratch->hub_dists[i] = dists.Find(plan.hub[i]);
    if (scratch->hub_dists[i] == nullptr) {
      return Status::NotFound(StrFormat("no distribution for Var(%zu,%zu)",
                                        plan.hub[i].object,
                                        plan.hub[i].attribute));
    }
    if (scratch->hub_dists[i]->size() != plan.hub_sizes[i]) {
      return Status::FailedPrecondition(
          "hub distribution arity changed since the plan was built");
    }
  }

  // Fill constants and tables from the current distributions, in plan
  // expression order.
  scratch->const_probs.resize(plan.exprs.size());
  scratch->tables.resize(plan.table_slots);
  for (std::size_t idx = 0; idx < plan.exprs.size(); ++idx) {
    const StarExpr& ce = plan.exprs[idx];
    switch (ce.kind) {
      case StarExpr::Kind::kConstant: {
        const auto p = ExpressionProbability(ce.expr, dists);
        if (!p.ok()) return p.status();
        scratch->const_probs[idx] = p.value();
        break;
      }
      case StarExpr::Kind::kDecided:
        break;
      case StarExpr::Kind::kTablePrime: {
        const CellRef hub_var = ce.hub_is_lhs ? ce.expr.lhs : ce.expr.rhs_var;
        const CellRef private_var =
            ce.hub_is_lhs ? ce.expr.rhs_var : ce.expr.lhs;
        const std::vector<double>* hub_dist = dists.Find(hub_var);
        const std::vector<double>* priv_dist = dists.Find(private_var);
        if (hub_dist == nullptr || priv_dist == nullptr) {
          return Status::NotFound("no distribution for variable");
        }
        if (hub_dist->size() != ce.table_size) {
          return Status::FailedPrecondition(
              "hub distribution arity changed since the plan was built");
        }
        for (std::size_t v = 0; v < hub_dist->size(); ++v) {
          // Truth probability of the expression given hub value v.
          double p = 0.0;
          for (std::size_t w = 0; w < priv_dist->size(); ++w) {
            const Level lhs_val = ce.hub_is_lhs ? static_cast<Level>(v)
                                                : static_cast<Level>(w);
            const Level rhs_val = ce.hub_is_lhs ? static_cast<Level>(w)
                                                : static_cast<Level>(v);
            const bool truth = (ce.expr.op == CmpOp::kGreater)
                                   ? lhs_val > rhs_val
                                   : lhs_val < rhs_val;
            if (truth) p += (*priv_dist)[w];
          }
          scratch->tables[ce.table_offset + v] = p;
        }
        break;
      }
    }
  }
  return Status::OK();
}

// Locates every listed atom in `condition`: fills scratch->atoms (kind,
// first occurrence, S_a range, decided fixes), in_conjunct/in_count and
// expr_atom. plan.exprs is the condition flattened conjunct-major, so
// conjuncts arrive in order and every S_a list comes out sorted.
Status IndexAtoms(const Condition& condition, const StarPlan& plan,
                  const std::vector<Expression>& atoms,
                  StarScratch* scratch) {
  using Atom = StarScratch::Atom;
  const std::size_t num_conjuncts = plan.conjunct_offsets.size() - 1;
  if (condition.NumExpressions() != plan.exprs.size() ||
      condition.conjuncts().size() != num_conjuncts) {
    return Status::InvalidArgument("star plan does not match the condition");
  }
  auto& index = scratch->atom_index;
  index.clear();
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    if (!index.emplace(atoms[i].PackedKey(), static_cast<std::uint32_t>(i))
             .second) {
      return Status::InvalidArgument("atom listed twice");
    }
  }
  std::vector<std::int64_t>& expr_atom = scratch->expr_atom;
  expr_atom.assign(plan.exprs.size(), -1);

  // Pass 1: each occurrence's atom, and each atom's |S_a|.
  std::vector<std::int64_t> last_conjunct(atoms.size(), -1);
  std::vector<std::uint32_t> holding(atoms.size(), 0);
  std::size_t e = 0;
  for (std::size_t c = 0; c < num_conjuncts; ++c) {
    for (const Expression& expr : condition.conjuncts()[c]) {
      const auto it = index.find(expr.PackedKey());
      if (it != index.end()) {
        expr_atom[e] = it->second;
        if (last_conjunct[it->second] != static_cast<std::int64_t>(c)) {
          last_conjunct[it->second] = static_cast<std::int64_t>(c);
          ++holding[it->second];
        }
      }
      ++e;
    }
  }

  // Pass 2: the flat S_a lists with a's occurrence count per conjunct.
  scratch->atoms.assign(atoms.size(), Atom{});
  std::uint32_t offset = 0;
  for (std::size_t a = 0; a < atoms.size(); ++a) {
    scratch->atoms[a].begin = scratch->atoms[a].end = offset;
    offset += holding[a];
  }
  scratch->in_conjunct.assign(offset, 0);
  scratch->in_count.assign(offset, 0);
  for (std::uint32_t c = 0; c < num_conjuncts; ++c) {
    for (std::uint32_t x = plan.conjunct_offsets[c];
         x < plan.conjunct_offsets[c + 1]; ++x) {
      if (expr_atom[x] < 0) continue;
      Atom& atom = scratch->atoms[static_cast<std::size_t>(expr_atom[x])];
      if (atom.end == atom.begin) atom.expr = x;
      if (atom.end == atom.begin || scratch->in_conjunct[atom.end - 1] != c) {
        scratch->in_conjunct[atom.end++] = c;
      }
      ++scratch->in_count[atom.end - 1];
    }
  }

  // Kinds and the fixes that decide φ.
  for (Atom& atom : scratch->atoms) {
    if (atom.end == atom.begin) {
      return Status::InvalidArgument("atom does not occur in the condition");
    }
    // An atom on a single-occurrence variable occurs once; an atom that
    // occurs more often has only hub operands, so h decides it.
    atom.decided = plan.exprs[atom.expr].kind == StarExpr::Kind::kDecided;
    if (!atom.decided &&
        (atom.end - atom.begin != 1 || scratch->in_count[atom.begin] != 1)) {
      return Status::Internal("repeated atom outside the star hub");
    }
    atom.fix_true_decides = atom.end - atom.begin == num_conjuncts;
    for (std::uint32_t s = atom.begin; s < atom.end; ++s) {
      const std::uint32_t c = scratch->in_conjunct[s];
      if (scratch->in_count[s] ==
          plan.conjunct_offsets[c + 1] - plan.conjunct_offsets[c]) {
        atom.fix_false_decides = true;
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<double> EvalStarPlan(const StarPlan& plan, const DistributionMap& dists,
                            StarScratch* scratch) {
  BAYESCROWD_RETURN_NOT_OK(FillStarPlan(plan, dists, scratch));

  // Enumerate hub assignments.
  scratch->h.assign(plan.hub.size(), 0);
  double total = 0.0;
  for (std::size_t step = 0; step < plan.space; ++step) {
    const double weight = HubWeight(plan, *scratch);
    if (weight > 0.0) {
      double product = 1.0;
      for (std::size_t c = 0; c + 1 < plan.conjunct_offsets.size(); ++c) {
        bool satisfied = false;
        double miss = 1.0;
        for (std::uint32_t e = plan.conjunct_offsets[c];
             e < plan.conjunct_offsets[c + 1]; ++e) {
          const StarExpr& ce = plan.exprs[e];
          if (ce.kind == StarExpr::Kind::kDecided) {
            if (DecidedTruth(ce, scratch->h)) satisfied = true;
          } else {
            miss *= 1.0 - ProbGivenHub(ce, e, *scratch);
          }
          if (satisfied) break;
        }
        product *= satisfied ? 1.0 : 1.0 - miss;
        if (product == 0.0) break;
      }
      total += weight * product;
    }
    NextHubAssignment(plan, scratch);
  }
  return total;
}

Status EvalStarCounterfactuals(const Condition& condition,
                               const StarPlan& plan,
                               const DistributionMap& dists,
                               const std::vector<Expression>& atoms,
                               StarScratch* scratch,
                               std::vector<double>* if_true,
                               std::vector<double>* if_false) {
  BAYESCROWD_RETURN_NOT_OK(FillStarPlan(plan, dists, scratch));
  const std::size_t num_conjuncts = plan.conjunct_offsets.size() - 1;
  const std::size_t num_exprs = plan.exprs.size();

  BAYESCROWD_RETURN_NOT_OK(IndexAtoms(condition, plan, atoms, scratch));

  // One enumeration of the hub. Per h: every conjunct's decided-true
  // count, miss product and factor f_j(h), then prefix/suffix products.
  if_true->assign(atoms.size(), 0.0);
  if_false->assign(atoms.size(), 0.0);
  std::vector<double>& keep = scratch->keep;
  std::vector<char>& truth = scratch->truth;
  std::vector<std::uint32_t>& sat = scratch->sat;
  std::vector<double>& miss = scratch->miss;
  std::vector<double>& factor = scratch->factor;
  std::vector<double>& prefix = scratch->prefix;
  std::vector<double>& suffix = scratch->suffix;
  keep.assign(num_exprs, 1.0);
  truth.assign(num_exprs, 0);
  sat.assign(num_conjuncts, 0);
  miss.assign(num_conjuncts, 1.0);
  factor.assign(num_conjuncts, 1.0);
  prefix.assign(num_conjuncts + 1, 1.0);
  suffix.assign(num_conjuncts + 1, 1.0);
  scratch->h.assign(plan.hub.size(), 0);
  for (std::size_t step = 0; step < plan.space; ++step) {
    const double w = HubWeight(plan, *scratch);
    if (w > 0.0) {
      for (std::size_t c = 0; c < num_conjuncts; ++c) {
        std::uint32_t decided_true = 0;
        double m = 1.0;
        for (std::uint32_t e = plan.conjunct_offsets[c];
             e < plan.conjunct_offsets[c + 1]; ++e) {
          const StarExpr& ce = plan.exprs[e];
          if (ce.kind == StarExpr::Kind::kDecided) {
            truth[e] = DecidedTruth(ce, scratch->h) ? 1 : 0;
            decided_true += static_cast<std::uint32_t>(truth[e]);
          } else {
            keep[e] = 1.0 - ProbGivenHub(ce, e, *scratch);
            m *= keep[e];
          }
        }
        sat[c] = decided_true;
        miss[c] = m;
        factor[c] = decided_true > 0 ? 1.0 : 1.0 - m;
        prefix[c + 1] = prefix[c] * factor[c];
      }
      for (std::size_t c = num_conjuncts; c-- > 0;) {
        suffix[c] = factor[c] * suffix[c + 1];
      }
      const double all = suffix[0];

      for (std::size_t a = 0; a < atoms.size(); ++a) {
        const StarScratch::Atom& atom = scratch->atoms[a];
        if (!atom.decided) {
          // a:=T drops its conjunct k; a:=F recomputes k without a, in
          // expression order (the fixed condition's arithmetic).
          const std::uint32_t k = scratch->in_conjunct[atom.begin];
          const double rest = prefix[k] * suffix[k + 1];
          if (rest == 0.0) continue;
          (*if_true)[a] += w * rest;
          double without = 1.0;
          if (sat[k] == 0) {
            double m = 1.0;
            for (std::uint32_t e = plan.conjunct_offsets[k];
                 e < plan.conjunct_offsets[k + 1]; ++e) {
              if (e != atom.expr &&
                  plan.exprs[e].kind != StarExpr::Kind::kDecided) {
                m *= keep[e];
              }
            }
            without = 1.0 - m;
          }
          (*if_false)[a] += w * rest * without;
        } else if (truth[atom.expr] != 0) {
          // a holds under h, so its conjuncts have f = 1: a:=T changes
          // nothing, a:=F takes a out of each of them.
          (*if_true)[a] += w * all;
          double product = all;
          for (std::uint32_t s = atom.begin; s < atom.end && product != 0.0;
               ++s) {
            const std::uint32_t c = scratch->in_conjunct[s];
            product *= sat[c] > scratch->in_count[s] ? 1.0 : 1.0 - miss[c];
          }
          (*if_false)[a] += w * product;
        } else {
          // a fails under h: a:=F changes nothing, a:=T drops S_a.
          (*if_false)[a] += w * all;
          const std::uint32_t first = scratch->in_conjunct[atom.begin];
          const std::uint32_t last = scratch->in_conjunct[atom.end - 1];
          double product = prefix[first] * suffix[last + 1];
          std::uint32_t s = atom.begin + 1;
          for (std::uint32_t c = first + 1; c < last && product != 0.0; ++c) {
            if (scratch->in_conjunct[s] == c) {
              ++s;
            } else {
              product *= factor[c];
            }
          }
          (*if_true)[a] += w * product;
        }
      }
    }
    NextHubAssignment(plan, scratch);
  }

  for (std::size_t a = 0; a < atoms.size(); ++a) {
    if (scratch->atoms[a].fix_true_decides) (*if_true)[a] = 1.0;
    if (scratch->atoms[a].fix_false_decides) (*if_false)[a] = 0.0;
  }
  return Status::OK();
}

}  // namespace bayescrowd
