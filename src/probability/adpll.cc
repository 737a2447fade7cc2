#include "probability/adpll.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "probability/naive.h"

namespace bayescrowd {
namespace {

// Endpoint-wise product of independent factors in [0, 1]: sound for
// intervals, and the plain product when every factor is exact.
void MultiplyInto(ProbInterval* product, const ProbInterval& factor) {
  product->lo *= factor.lo;
  product->hi *= factor.hi;
  if (!factor.exact()) product->quality = ProbQuality::kPartialBound;
}

// One adaptive DPLL search over ProbInterval for both ladder tiers: the
// exact tier (AdpllProbability) and the anytime tier
// (AdpllPartialProbability) walk the same search in the same order, and
// `anytime` picks the stopping rule. The modes differ in exactly four
// places:
//  1. When the call budget or the cancellation check runs out, the
//     exact tier returns ResourceExhausted and the anytime tier closes
//     the subtree to [0, 1].
//  2. A correlated conjunct goes to NaiveProbability in the exact tier
//     and to NaiveBoundedProbability in the anytime tier.
//  3. When the component-split budget runs out, the exact tier aborts
//     and the anytime tier branches instead.
//  4. Branch sums come back unclamped in the exact tier and clamped to
//     [0, 1] in the anytime tier.
// An exact-tier interval always has lo == hi, so its endpoint sums and
// products are plain scalar arithmetic. The anytime bound is sound
// because a branch is Σ p_v · [lo_v, hi_v] and independent components
// multiply endpoint-wise, so the final interval always contains the
// exact probability.
class AdpllSearch {
 public:
  AdpllSearch(const DistributionMap& dists, const AdpllOptions& options,
              bool anytime, AdpllStats* stats, AdpllScratch* scratch)
      : dists_(dists), options_(options), anytime_(anytime), stats_(stats),
        rng_(options.seed),
        scratch_(scratch != nullptr ? scratch : &owned_scratch_) {}

  Result<ProbInterval> Recurse(const Condition& condition) {
    if (stats_ != nullptr) ++stats_->calls;
    // Mode difference 1: out of calls or cancelled.
    const bool out_of_calls = ++calls_ > options_.max_calls;
    if (out_of_calls ||
        (options_.control != nullptr && options_.control->ShouldStop())) {
      if (anytime_) return ProbInterval::Unknown();
      if (!out_of_calls) return Status::ResourceExhausted("ADPLL cancelled");
      return Status::ResourceExhausted(StrFormat(
          "ADPLL exceeded %llu recursive calls",
          static_cast<unsigned long long>(options_.max_calls)));
    }
    if (condition.IsTrue()) return ProbInterval::Exact(1.0);
    if (condition.IsFalse()) return ProbInterval::Exact(0.0);

    // Special conjunctive rule: variable-disjoint conjuncts multiply.
    if (condition.ConjunctsAreIndependent()) {
      if (stats_ != nullptr) ++stats_->direct_evals;
      ProbInterval product = ProbInterval::Exact(1.0);
      for (const Conjunct& conjunct : condition.conjuncts()) {
        BAYESCROWD_ASSIGN_OR_RETURN(const ProbInterval pc,
                                    ConjunctProbability(conjunct));
        MultiplyInto(&product, pc);
        if (product.hi == 0.0) break;
      }
      return product;
    }

    // Star fast path (see TryStarProbability).
    if (options_.star_fast_path) {
      Result<double> star = 0.0;
      if (TryStarProbability(condition, &star)) {
        BAYESCROWD_ASSIGN_OR_RETURN(const double p, std::move(star));
        return ProbInterval::Exact(p);
      }
    }

    // Refinement: split variable-disjoint *groups* of conjuncts. Mode
    // difference 3: out of splits, the anytime tier branches instead.
    const bool splits_left =
        options_.max_component_splits == 0 ||
        component_splits_ < options_.max_component_splits;
    if (options_.component_decomposition && (splits_left || !anytime_)) {
      const auto components = condition.ConjunctComponents();
      if (components.size() > 1) {
        if (!splits_left) {
          return Status::ResourceExhausted(StrFormat(
              "ADPLL exceeded %llu component splits",
              static_cast<unsigned long long>(
                  options_.max_component_splits)));
        }
        ++component_splits_;
        if (stats_ != nullptr) ++stats_->component_splits;
        ProbInterval product = ProbInterval::Exact(1.0);
        for (const auto& indices : components) {
          std::vector<Conjunct> sub;
          sub.reserve(indices.size());
          for (std::size_t c : indices) {
            sub.push_back(condition.conjuncts()[c]);
          }
          BAYESCROWD_ASSIGN_OR_RETURN(
              const ProbInterval pc, Recurse(Condition::Cnf(std::move(sub))));
          MultiplyInto(&product, pc);
          if (product.hi == 0.0) return ProbInterval::Exact(0.0);
        }
        return product;
      }
    }

    // Branch on a variable; correlation weakens with every substitution.
    const CellRef var = PickVariable(condition);
    const std::vector<double>* dist = dists_.Find(var);
    if (dist == nullptr) {
      return Status::NotFound(StrFormat("no distribution for Var(%zu,%zu)",
                                        var.object, var.attribute));
    }
    ProbInterval total = ProbInterval::Exact(0.0);
    for (std::size_t value = 0; value < dist->size(); ++value) {
      const double p = (*dist)[value];
      if (p <= 0.0) continue;
      if (stats_ != nullptr) ++stats_->branches;
      BAYESCROWD_ASSIGN_OR_RETURN(
          const ProbInterval sub,
          Recurse(condition.SubstituteVariable(
              var, static_cast<Level>(value))));
      total.lo += p * sub.lo;
      total.hi += p * sub.hi;
      if (!sub.exact()) total.quality = ProbQuality::kPartialBound;
    }
    if (anytime_) {  // Mode difference 4.
      total.lo = std::min(1.0, std::max(0.0, total.lo));
      total.hi = std::min(1.0, std::max(total.lo, total.hi));
    }
    return total;
  }

 private:
  // Probability of one disjunction. When its expressions touch distinct
  // variables (the structural common case: one expression per
  // attribute), the general disjunctive rule applies:
  //   Pr(e1 ∨ ... ∨ ek) = 1 - Π (1 - Pr(ei)).
  // Otherwise falls back to enumeration over the conjunct's own (few)
  // variables: exact, or the bounded scan's sound interval.
  Result<ProbInterval> ConjunctProbability(const Conjunct& conjunct) {
    // Conjuncts are small (at most one expression per attribute), so a
    // linear scan beats any map.
    bool distinct = true;
    std::vector<CellRef>& seen_vars_ = scratch_->seen_vars;
    seen_vars_.clear();
    const auto note = [&seen_vars_](const CellRef& var) {
      for (const CellRef& v : seen_vars_) {
        if (v == var) return false;
      }
      seen_vars_.push_back(var);
      return true;
    };
    for (const Expression& e : conjunct) {
      if (!note(e.lhs) || (e.rhs_is_var && !note(e.rhs_var))) {
        distinct = false;
        break;
      }
    }
    if (distinct) {
      double miss_all = 1.0;
      for (const Expression& e : conjunct) {
        BAYESCROWD_ASSIGN_OR_RETURN(const double pe,
                                    ExpressionProbability(e, dists_));
        miss_all *= 1.0 - pe;
      }
      return ProbInterval::Exact(1.0 - miss_all);
    }
    const Condition correlated = Condition::Cnf({conjunct});
    if (anytime_) {  // Mode difference 2.
      return NaiveBoundedProbability(correlated, dists_, InnerNaiveOptions());
    }
    BAYESCROWD_ASSIGN_OR_RETURN(
        const double p,
        NaiveProbability(correlated, dists_, InnerNaiveOptions()));
    return ProbInterval::Exact(p);
  }

  // Budgets for the enumeration a correlated conjunct falls back to: a
  // wide equality chain puts its whole variable set into one conjunct,
  // so the inner space must be capped by the same governor that caps
  // the recursion.
  NaiveOptions InnerNaiveOptions() const {
    NaiveOptions inner;
    if (options_.max_conjunct_assignments > 0) {
      inner.max_assignments = options_.max_conjunct_assignments;
    }
    inner.control = options_.control;
    return inner;
  }

  // Star fast path: let H be the variables occurring more than once in
  // the condition (every other variable appears in exactly one
  // expression). Then
  //   Pr(φ) = Σ_h p(h) Π_conjuncts Pr(conjunct | H = h),
  // and given h every conjunct's surviving expressions touch distinct
  // single-occurrence variables, so the disjunctive rule applies with
  // probabilities that are either constants or lookups in per-expression
  // tables indexed by one hub value. Exact, allocation-light, and it
  // covers the dominant c-table shape (all conjuncts of φ(o) share o's
  // own missing attributes). Returns false when H's joint domain is too
  // large; the caller then branches normally (which shrinks H by one).
  bool TryStarProbability(const Condition& condition, Result<double>* out) {
    Status status = Status::OK();
    if (!BuildStarPlan(condition, dists_, options_.max_hub_space,
                       &scratch_->star_plan, &scratch_->star, &status)) {
      return false;
    }
    if (!status.ok()) {
      *out = status;
      return true;  // Applicable, but errored.
    }
    *out = EvalStarPlan(scratch_->star_plan, dists_, &scratch_->star);
    if (out->ok() && stats_ != nullptr) {
      ++stats_->direct_evals;
      ++stats_->star_evals;
    }
    return true;
  }

  CellRef PickVariable(const Condition& condition) {
    switch (options_.heuristic) {
      case BranchHeuristic::kMostFrequent:
        return condition.MostFrequentVariable();
      case BranchHeuristic::kFirst:
        return condition.Variables().front();
      case BranchHeuristic::kRandom: {
        const auto vars = condition.Variables();
        return vars[rng_.NextBelow(vars.size())];
      }
    }
    return condition.MostFrequentVariable();
  }

  const DistributionMap& dists_;
  const AdpllOptions& options_;
  const bool anytime_;
  AdpllStats* stats_;
  Rng rng_;
  std::uint64_t calls_ = 0;
  std::uint64_t component_splits_ = 0;
  AdpllScratch* scratch_;           // Never null; owned_scratch_ fallback.
  AdpllScratch owned_scratch_;      // Per-call buffers when none passed.
};

}  // namespace

Result<double> AdpllProbability(const Condition& condition,
                                const DistributionMap& dists,
                                const AdpllOptions& options,
                                AdpllStats* stats, AdpllScratch* scratch) {
  AdpllSearch search(dists, options, /*anytime=*/false, stats, scratch);
  BAYESCROWD_ASSIGN_OR_RETURN(const ProbInterval p, search.Recurse(condition));
  return p.lo;
}

Result<ProbInterval> AdpllPartialProbability(const Condition& condition,
                                             const DistributionMap& dists,
                                             const AdpllOptions& options,
                                             AdpllStats* stats,
                                             AdpllScratch* scratch) {
  AdpllSearch search(dists, options, /*anytime=*/true, stats, scratch);
  return search.Recurse(condition);
}

}  // namespace bayescrowd
