// ADPLL (adaptive DPLL, Algorithm 3): exact Pr(φ) computation.
//
// The computation is at least as hard as weighted model counting (#SAT),
// since variables take multiple discrete values under learned
// distributions. ADPLL recursively branches on the most frequent
// variable to break conjunct correlation; once the remaining conjuncts
// are variable-disjoint their probabilities multiply directly (special
// conjunctive rule) and each conjunct is integrated with the general
// disjunctive rule Pr(p ∨ q) = 1 - Pr(¬p ∧ ¬q).
//
// Two refinements beyond the paper's pseudo-code are exposed as options
// (and benchmarked as ablations):
//  * component decomposition: independent *groups* of conjuncts multiply
//    even when conjuncts inside a group are correlated;
//  * alternative branching-variable heuristics.

#ifndef BAYESCROWD_PROBABILITY_ADPLL_H_
#define BAYESCROWD_PROBABILITY_ADPLL_H_

#include <cstdint>

#include "common/random.h"
#include "common/result.h"
#include "ctable/condition.h"
#include "probability/distributions.h"
#include "probability/interval.h"
#include "probability/star.h"

namespace bayescrowd {

enum class BranchHeuristic : std::uint8_t {
  kMostFrequent,  // Paper's choice: the variable occurring most often.
  kFirst,         // First variable in appearance order (ablation).
  kRandom,        // Uniform random variable (ablation).
};

struct AdpllOptions {
  /// Multiply probabilities of variable-disjoint conjunct components
  /// instead of requiring *all* conjuncts to be pairwise independent.
  bool component_decomposition = true;

  /// Star fast path: when the variables occurring more than once (the
  /// "hub") span a small joint domain, enumerate the hub assignment
  /// directly with precomputed per-expression probability tables instead
  /// of materializing substituted conditions. Exact; typically an order
  /// of magnitude faster on c-table conditions, whose conjuncts all
  /// share the object's own variables.
  bool star_fast_path = true;

  /// Joint-domain cap for the star fast path.
  std::size_t max_hub_space = 4096;

  BranchHeuristic heuristic = BranchHeuristic::kMostFrequent;

  /// Seed for kRandom tie-breaking / selection.
  std::uint64_t seed = 7;

  /// Recursion budget: computation aborts with ResourceExhausted after
  /// this many recursive calls.
  std::uint64_t max_calls = 50'000'000;

  /// Budget for the *inner* Naive enumerations a correlated conjunct
  /// falls back to (wide equality chains put many variables into one
  /// conjunct, so the per-conjunct space can dwarf the recursion
  /// budget). 0 keeps the NaiveOptions default.
  std::uint64_t max_conjunct_assignments = 0;

  /// Budget on component-decomposition splits (the memoized-component
  /// count of the governor). 0 means unlimited.
  std::uint64_t max_component_splits = 0;

  /// Cooperative cancellation (deadline / external cancel), polled at
  /// every recursive call and inside inner enumerations. Non-owning;
  /// may be null. Cancellation aborts with ResourceExhausted — it never
  /// changes the value of a solve that runs to completion.
  SolverControl* control = nullptr;
};

struct AdpllStats {
  std::uint64_t calls = 0;        // Recursive invocations.
  std::uint64_t branches = 0;     // Value branches taken.
  std::uint64_t direct_evals = 0; // Conditions resolved by independence.
  std::uint64_t component_splits = 0;  // Variable-disjoint group splits.
  std::uint64_t star_evals = 0;        // Star fast-path enumerations.

  AdpllStats& operator+=(const AdpllStats& other) {
    calls += other.calls;
    branches += other.branches;
    direct_evals += other.direct_evals;
    component_splits += other.component_splits;
    star_evals += other.star_evals;
    return *this;
  }
};

/// Reusable per-caller scratch for the ADPLL hot path. Without one the
/// solver allocates the star-path hub maps, expression tables and
/// odometer — plus the conjunct distinctness buffer — on every solve;
/// threading a scratch through repeated solves (one per evaluator lane)
/// reuses those buffers instead. Not thread-safe: one scratch per
/// concurrent caller. Passing nullptr falls back to per-call buffers
/// with identical results.
struct AdpllScratch {
  StarPlan star_plan;
  StarScratch star;
  std::vector<CellRef> seen_vars;  // Conjunct distinctness scan.
};

/// Exact Pr(φ) via adaptive DPLL search. `stats`, if non-null, is
/// accumulated into (not reset).
Result<double> AdpllProbability(const Condition& condition,
                                const DistributionMap& dists,
                                const AdpllOptions& options = {},
                                AdpllStats* stats = nullptr,
                                AdpllScratch* scratch = nullptr);

/// Anytime variant: the same search with a different stopping rule.
/// Budget exhaustion *closes* a subtree into the sound bound [0, 1]
/// instead of aborting the solve, a correlated conjunct takes the
/// bounded Naive scan's interval, and an exhausted component-split
/// budget branches instead of aborting. Value branches combine as
/// Σ p_v · [lo_v, hi_v] and independent components multiply, so the
/// returned interval always contains the exact probability. Runs within
/// the same budgets as AdpllProbability (max_calls,
/// max_conjunct_assignments, max_component_splits, control); with no
/// budget pressure the result is exact (quality kExact, lo == hi ==
/// AdpllProbability up to the final clamp of a branch sum into [0, 1]).
Result<ProbInterval> AdpllPartialProbability(
    const Condition& condition, const DistributionMap& dists,
    const AdpllOptions& options = {}, AdpllStats* stats = nullptr,
    AdpllScratch* scratch = nullptr);

}  // namespace bayescrowd

#endif  // BAYESCROWD_PROBABILITY_ADPLL_H_
