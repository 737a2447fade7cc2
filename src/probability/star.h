// Star fast path, split into a reusable *plan* (structure) and an
// *evaluation* (arithmetic under the current distributions).
//
// Let H be the variables occurring more than once in a condition. When
// H's joint domain is small,
//   Pr(φ) = Σ_h p(h) Π_conjuncts Pr(conjunct | H = h),
// and given h every conjunct's surviving expressions touch distinct
// single-occurrence variables, so the disjunctive rule applies with
// per-expression probabilities that are either constants or lookups in
// tables indexed by one hub value.
//
// ADPLL historically built and evaluated this in one shot, allocating
// the hub maps and tables on every call. The split serves two masters:
//  * AdpllScratch reuses the buffers across solves (hot-path fix);
//  * the counterfactual pass (EvalStarCounterfactuals) reads both
//    counterfactuals Pr(φ[e:=true]) and Pr(φ[e:=false]) of every atom
//    e off one enumeration of the same plan.
// Both fill the plan with the same code (FillStarPlan), so the pass
// reads the same per-expression numbers as the ADPLL fast path.

#ifndef BAYESCROWD_PROBABILITY_STAR_H_
#define BAYESCROWD_PROBABILITY_STAR_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "ctable/condition.h"
#include "probability/distributions.h"

namespace bayescrowd {

// One expression, classified for hub enumeration.
struct StarExpr {
  enum class Kind : std::uint8_t {
    kConstant,    // No hub variable: probability refilled per eval.
    kDecided,     // Both operands hub/const: truth decided per h.
    kTablePrime,  // One hub variable: probability = table[hub value].
  } kind = Kind::kConstant;

  // kDecided: comparison of hub slots/constant.
  int lhs_slot = -1;          // Hub slot of lhs (kTablePrime: table slot).
  int rhs_slot = -1;          // Hub slot of rhs var (-1: const/private).
  CmpOp op = CmpOp::kGreater;
  Level rhs_const = 0;
  bool rhs_is_var = false;

  // kConstant / kTablePrime: the original expression, re-integrated
  // against the distributions at every evaluation.
  Expression expr;
  bool hub_is_lhs = false;           // kTablePrime: which side is the hub.
  std::uint32_t table_offset = 0;    // kTablePrime: into scratch tables.
  std::uint32_t table_size = 0;      // kTablePrime: hub domain size.
};

/// Value-independent star decomposition of one condition: hub variables
/// in first-occurrence order, classified expressions flattened
/// conjunct-major. Immutable once built — safe to share across lanes.
struct StarPlan {
  std::vector<CellRef> hub;
  std::vector<std::uint32_t> hub_sizes;         // Domain size per hub var.
  std::vector<StarExpr> exprs;
  std::vector<std::uint32_t> conjunct_offsets;  // exprs range per conjunct.
  std::size_t space = 0;                        // Joint hub domain size.
  std::size_t table_slots = 0;                  // Σ kTablePrime table sizes.
};

/// Reusable buffers for building and evaluating star plans. One scratch
/// per concurrent caller; contents are meaningless between calls.
struct StarScratch {
  // Build-time hub discovery.
  std::unordered_map<PackedVar, int> occurrences;
  std::vector<CellRef> order;
  std::unordered_map<PackedVar, int> hub_slot;
  // Eval-time state (tables are refilled from the current posteriors).
  std::vector<const std::vector<double>*> hub_dists;
  std::vector<double> const_probs;  // Per-expr, kConstant entries only.
  std::vector<double> tables;       // Flat kTablePrime table arena.
  std::vector<Level> h;             // Odometer.
  // Counterfactual-pass state (EvalStarCounterfactuals).
  struct Atom {
    bool decided = false;     // Hub operands only: h decides it.
    std::uint32_t expr = 0;   // First occurrence (flat plan index).
    std::uint32_t begin = 0;  // S_a: [begin, end) of in_conjunct.
    std::uint32_t end = 0;
    bool fix_true_decides = false;   // a is in every conjunct.
    bool fix_false_decides = false;  // Some conjunct holds only a.
  };
  std::unordered_map<PackedExpr, std::uint32_t, PackedExprHash> atom_index;
  std::vector<Atom> atoms;
  std::vector<std::int64_t> expr_atom;   // Per-expr atom, -1: none.
  std::vector<std::uint32_t> in_conjunct;  // Flat S_a: conjunct ids.
  std::vector<std::uint32_t> in_count;     // a's occurrences there.
  std::vector<double> keep;     // Per-expr 1 - Pr(e | h), probabilistic.
  std::vector<char> truth;      // Per-expr truth under h, kDecided.
  std::vector<std::uint32_t> sat;  // Per-conjunct decided-true count.
  std::vector<double> miss;     // Per-conjunct Π keep.
  std::vector<double> factor;   // Per-conjunct f_j(h).
  std::vector<double> prefix;   // prefix[j] = Π_{i<j} f_i(h).
  std::vector<double> suffix;   // suffix[j] = Π_{i≥j} f_i(h).
};

/// Builds the star decomposition of `condition`. Returns false when the
/// decomposition does not apply (more than 16 hub variables, or joint
/// domain above `max_hub_space`) — the caller then branches normally,
/// which shrinks the hub by one. A condition without repeated variables
/// gets the space-1 plan (ADPLL multiplies such conditions directly and
/// never asks). Returns true when it applies; `*status` reports any
/// error discovered while sizing the hub (missing hub distribution),
/// mirroring ADPLL's "applicable but errored" case.
bool BuildStarPlan(const Condition& condition, const DistributionMap& dists,
                   std::size_t max_hub_space, StarPlan* plan,
                   StarScratch* scratch, Status* status);

/// ADPLL's star fast path: fills the plan's per-expression constants and
/// tables from `dists` (the fill step EvalStarCounterfactuals shares),
/// then enumerates the hub joint domain.
Result<double> EvalStarPlan(const StarPlan& plan, const DistributionMap& dists,
                            StarScratch* scratch);

/// The counterfactual star pass: for every atom in `atoms`, the two
/// probabilities the marginal utility needs, Pr(φ[a:=true]) into
/// (*if_true)[i] and Pr(φ[a:=false]) into (*if_false)[i], where φ[a:=v]
/// is `condition` with every occurrence of `atoms[i]` (operator==, so
/// either var-var orientation) fixed to v and re-simplified — the
/// FixExpression reading. `plan` must be BuildStarPlan's plan of
/// `condition`. One enumeration of the hub serves every atom: with
/// f_j(h) the probability of conjunct j given h and S_a the conjuncts
/// holding a,
///   Pr(φ[a:=T]) = Σ_h p(h) Π_{j∉S_a} f_j(h),
///   Pr(φ[a:=F]) = Σ_h p(h) Π_{j∉S_a} f_j(h) Π_{j∈S_a} f_j^{-a}(h),
/// with f_j^{-a} conjunct j without a. Prefix/suffix products across
/// conjuncts give the product without one conjunct. Cost
/// O(space × (J + Σ_a cost(a))), J the conjunct count: an atom on a
/// single-occurrence variable costs its conjunct's width, an atom
/// decided by h its conjuncts (and, where it is false, the span they
/// cover). A fix that decides φ gives exactly 1 or 0. `atoms` must be
/// distinct expressions of `condition` (InvalidArgument otherwise).
/// Matches solving the fixed conditions to rounding (~1e-15 relative),
/// not bit for bit.
Status EvalStarCounterfactuals(const Condition& condition,
                               const StarPlan& plan,
                               const DistributionMap& dists,
                               const std::vector<Expression>& atoms,
                               StarScratch* scratch,
                               std::vector<double>* if_true,
                               std::vector<double>* if_false);

}  // namespace bayescrowd

#endif  // BAYESCROWD_PROBABILITY_STAR_H_
