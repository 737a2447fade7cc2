// Cross-module property tests: invariants that must hold on randomly
// generated inputs across workload families, sizes and missing rates.

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "ctable/builder.h"
#include "ctable/dominator.h"
#include "ctable/knowledge.h"
#include "data/generators.h"
#include "data/missing.h"
#include "probability/adpll.h"
#include "probability/naive.h"
#include "skyline/algorithms.h"
#include "skyline/dominance.h"

namespace bayescrowd {
namespace {

enum class Workload { kIndependent, kCorrelated, kAnticorrelated, kNba };

Table MakeWorkload(Workload kind, std::size_t n, std::uint64_t seed) {
  switch (kind) {
    case Workload::kIndependent:
      return MakeIndependent(n, 5, 8, seed);
    case Workload::kCorrelated:
      return MakeCorrelated(n, 5, 8, seed);
    case Workload::kAnticorrelated:
      return MakeAnticorrelated(n, 5, 8, seed);
    case Workload::kNba:
      return MakeNbaLike(n, seed, 8);
  }
  return {};
}

struct WorkloadCase {
  Workload kind;
  double missing_rate;
  double alpha;
  std::uint64_t seed;
};

class WorkloadPropertyTest
    : public ::testing::TestWithParam<WorkloadCase> {};

// ------------------------------------------------------------------ //
// Dominator sets: bitset fast path == pairwise baseline, and every
// member satisfies Definition 5.
// ------------------------------------------------------------------ //

TEST_P(WorkloadPropertyTest, DominatorFastEqualsBaseline) {
  const WorkloadCase& param = GetParam();
  const Table complete = MakeWorkload(param.kind, 120, param.seed);
  Rng rng(param.seed ^ 0xD00D);
  const Table table =
      InjectMissingUniform(complete, param.missing_rate, rng);
  const auto fast = ComputeDominatorSets(table, param.alpha);
  const auto base = ComputeDominatorSetsBaseline(table, param.alpha);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(fast->pruned, base->pruned);
  EXPECT_EQ(fast->dominators, base->dominators);
}

TEST_P(WorkloadPropertyTest, DominatorMembersSatisfyDefinition5) {
  const WorkloadCase& param = GetParam();
  const Table complete = MakeWorkload(param.kind, 100, param.seed);
  Rng rng(param.seed ^ 0xBEEF);
  const Table table =
      InjectMissingUniform(complete, param.missing_rate, rng);
  const auto sets = ComputeDominatorSets(table, -1.0);
  ASSERT_TRUE(sets.ok());
  for (std::size_t o = 0; o < table.num_objects(); ++o) {
    std::vector<bool> member(table.num_objects(), false);
    for (std::uint32_t p : sets->dominators[o]) member[p] = true;
    for (std::size_t p = 0; p < table.num_objects(); ++p) {
      if (p == o) {
        EXPECT_FALSE(member[p]);
        continue;
      }
      bool qualifies = true;
      for (std::size_t j = 0; j < table.num_attributes(); ++j) {
        const Level ov = table.At(o, j);
        const Level pv = table.At(p, j);
        if (!IsMissingLevel(ov) && !IsMissingLevel(pv) && pv < ov) {
          qualifies = false;
          break;
        }
      }
      EXPECT_EQ(member[p], qualifies) << "o=" << o << " p=" << p;
    }
  }
}

// ------------------------------------------------------------------ //
// The count-first kernel against the pairwise Baseline where its word
// arithmetic has edges: n around multiples of 64 (the self bit and the
// tail word's padding), and every α regime from "never prune" through
// exits before the last block of words to "prune every non-empty set".
// ------------------------------------------------------------------ //

/// NBA-like rows at 6 levels with 20% missing cells, then an
/// all-missing last attribute, an all-missing middle row and every
/// seventh row an exact copy of the one before.
Table KernelEdgeTable(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Table table = InjectMissingUniform(MakeNbaLike(n, seed, 6), 0.2, rng);
  const std::size_t d = table.num_attributes();
  for (std::size_t i = 0; i < n; ++i) table.SetCell(i, d - 1, kMissingLevel);
  for (std::size_t j = 0; j < d; ++j) table.SetCell(n / 2, j, kMissingLevel);
  for (std::size_t i = 7; i < n; i += 7) {
    for (std::size_t j = 0; j < d; ++j) {
      table.SetCell(i, j, table.At(i - 1, j));
    }
  }
  return table;
}

TEST(DominatorKernelTest, EqualsBaselineAtWordEdgesForEveryAlpha) {
  std::size_t pruned = 0;
  std::size_t kept = 0;
  for (const std::size_t n : {1u, 63u, 64u, 65u, 127u, 128u, 129u, 1000u}) {
    const Table table = KernelEdgeTable(n, 40 + n);
    for (const double alpha : {-1.0, 0.0, 0.003, 0.01, 0.2}) {
      const auto fast = ComputeDominatorSets(table, alpha);
      const auto base = ComputeDominatorSetsBaseline(table, alpha);
      ASSERT_TRUE(fast.ok());
      ASSERT_TRUE(base.ok());
      EXPECT_EQ(fast->pruned, base->pruned) << "n=" << n << " α=" << alpha;
      EXPECT_EQ(fast->dominators, base->dominators)
          << "n=" << n << " α=" << alpha;
      for (const bool p : fast->pruned) (p ? pruned : kept) += 1;
    }
  }
  // Both outcomes occur, so neither branch of the kernel went untested.
  EXPECT_GT(pruned, 0u);
  EXPECT_GT(kept, 0u);
}

// ------------------------------------------------------------------ //
// C-table semantics: for the *true* completion of the data, φ(o) must
// evaluate to the actual skyline membership — except for the documented
// all-equal corner (a dominator whose possible worlds are all-equal) and
// α-pruned objects.
// ------------------------------------------------------------------ //

TEST_P(WorkloadPropertyTest, ConditionsEvaluateTruthfullyOnRealCompletion) {
  const WorkloadCase& param = GetParam();
  const Table complete = MakeWorkload(param.kind, 90, param.seed);
  Rng rng(param.seed ^ 0xFACE);
  const Table table =
      InjectMissingUniform(complete, param.missing_rate, rng);
  const auto ctable = BuildCTable(table, {.alpha = -1.0});
  ASSERT_TRUE(ctable.ok());
  const auto skyline = SkylineBnl(complete);
  ASSERT_TRUE(skyline.ok());
  std::vector<bool> in_skyline(table.num_objects(), false);
  for (std::size_t s : skyline.value()) in_skyline[s] = true;

  const auto value_of = [&complete](const CellRef& var) {
    return complete.At(var.object, var.attribute);
  };
  std::size_t checked = 0;
  for (std::size_t o = 0; o < table.num_objects(); ++o) {
    const bool holds =
        EvaluateConditionComplete(ctable->condition(o), value_of);
    // The paper's CNF treats "dominator equal to o in every possible
    // world" as domination, so φ(o) may be false for an object whose
    // only "dominators" are exact ties. Skip objects with a tie in the
    // complete data; everything else must match exactly.
    bool has_tie = false;
    for (std::size_t p = 0; p < complete.num_objects() && !has_tie; ++p) {
      if (p == o) continue;
      bool equal = true;
      for (std::size_t j = 0; j < complete.num_attributes(); ++j) {
        if (complete.At(p, j) != complete.At(o, j)) {
          equal = false;
          break;
        }
      }
      has_tie = equal;
    }
    if (has_tie) continue;
    ++checked;
    EXPECT_EQ(holds, in_skyline[o]) << "object " << o;
  }
  EXPECT_GT(checked, 50u);
}

// ------------------------------------------------------------------ //
// Probability: ADPLL == Naive on every tractable real condition.
// ------------------------------------------------------------------ //

TEST_P(WorkloadPropertyTest, AdpllMatchesNaiveOnRealConditions) {
  const WorkloadCase& param = GetParam();
  const Table complete = MakeWorkload(param.kind, 80, param.seed);
  Rng rng(param.seed ^ 0xCAFE);
  const Table table =
      InjectMissingUniform(complete, param.missing_rate, rng);
  const auto ctable = BuildCTable(table, {.alpha = param.alpha});
  ASSERT_TRUE(ctable.ok());

  DistributionMap dists;
  Rng dist_rng(param.seed ^ 0xD157);
  for (const CellRef& cell : table.MissingCells()) {
    const auto card = static_cast<std::size_t>(
        table.schema().domain_size(cell.attribute));
    std::vector<double> dist(card);
    double total = 0.0;
    for (double& p : dist) {
      p = 0.1 + dist_rng.NextDouble();
      total += p;
    }
    for (double& p : dist) p /= total;
    BAYESCROWD_CHECK_OK(dists.Set(cell, dist));
  }

  for (std::size_t i : ctable->UndecidedObjects()) {
    const Condition& cond = ctable->condition(i);
    if (cond.Variables().size() > 7) continue;
    const auto naive = NaiveProbability(cond, dists);
    const auto adpll = AdpllProbability(cond, dists);
    ASSERT_TRUE(naive.ok());
    ASSERT_TRUE(adpll.ok());
    EXPECT_NEAR(naive.value(), adpll.value(), 1e-9) << "object " << i;
  }
}

// ------------------------------------------------------------------ //
// Skyline algorithms agree and are correct under Definition 1.
// ------------------------------------------------------------------ //

TEST_P(WorkloadPropertyTest, SkylineAlgorithmsAgree) {
  const WorkloadCase& param = GetParam();
  const Table table = MakeWorkload(param.kind, 150, param.seed);
  const auto bnl = SkylineBnl(table);
  const auto sfs = SkylineSfs(table);
  ASSERT_TRUE(bnl.ok());
  ASSERT_TRUE(sfs.ok());
  EXPECT_EQ(bnl.value(), sfs.value());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WorkloadPropertyTest,
    ::testing::Values(
        WorkloadCase{Workload::kIndependent, 0.05, 0.2, 1},
        WorkloadCase{Workload::kIndependent, 0.20, 0.3, 2},
        WorkloadCase{Workload::kCorrelated, 0.10, 0.2, 3},
        WorkloadCase{Workload::kCorrelated, 0.20, 0.4, 4},
        WorkloadCase{Workload::kAnticorrelated, 0.10, 0.2, 5},
        WorkloadCase{Workload::kAnticorrelated, 0.15, 0.5, 6},
        WorkloadCase{Workload::kNba, 0.05, 0.1, 7},
        WorkloadCase{Workload::kNba, 0.15, 0.2, 8}));

// ------------------------------------------------------------------ //
// Substitution semantics: recursively assigning every variable of a
// condition must agree with direct complete evaluation.
// ------------------------------------------------------------------ //

TEST(SubstitutionSemanticsTest, FullSubstitutionMatchesDirectEvaluation) {
  Rng rng(99);
  for (int round = 0; round < 30; ++round) {
    // Random small condition over 3 variables with domain 3.
    std::vector<CellRef> vars = {{0, 0}, {1, 0}, {2, 0}};
    std::vector<Conjunct> conjuncts;
    const std::size_t num_conjuncts = 1 + rng.NextBelow(3);
    for (std::size_t c = 0; c < num_conjuncts; ++c) {
      Conjunct conj;
      const std::size_t width = 1 + rng.NextBelow(2);
      for (std::size_t e = 0; e < width; ++e) {
        const CellRef v = vars[rng.NextBelow(3)];
        const CmpOp op = rng.NextBool(0.5) ? CmpOp::kGreater : CmpOp::kLess;
        if (rng.NextBool(0.4)) {
          CellRef w = vars[rng.NextBelow(3)];
          if (w == v) w = vars[(PackVar(w) + 1) % 3];
          conj.push_back(Expression::VarVar(v, op, w));
        } else {
          conj.push_back(Expression::VarConst(
              v, op, static_cast<Level>(rng.NextBelow(4))));
        }
      }
      conjuncts.push_back(std::move(conj));
    }
    const Condition condition = Condition::Cnf(std::move(conjuncts));

    for (Level a = 0; a < 3; ++a) {
      for (Level b = 0; b < 3; ++b) {
        for (Level c = 0; c < 3; ++c) {
          const std::map<CellRef, Level> assignment = {
              {vars[0], a}, {vars[1], b}, {vars[2], c}};
          Condition substituted = condition;
          for (const auto& [var, value] : assignment) {
            substituted = substituted.SubstituteVariable(var, value);
          }
          ASSERT_TRUE(substituted.IsDecided());
          const bool direct = EvaluateConditionComplete(
              condition,
              [&assignment](const CellRef& var) {
                return assignment.at(var);
              });
          EXPECT_EQ(substituted.IsTrue(), direct)
              << "round " << round << " assignment " << a << b << c;
        }
      }
    }
  }
}

// ------------------------------------------------------------------ //
// Knowledge conditioning: distributions stay normalized and supported
// inside the narrowed interval.
// ------------------------------------------------------------------ //

TEST(KnowledgeConditioningTest, RandomRestrictionsKeepDistributionsValid) {
  const Table table = MakeSampleMovieDataset();
  Rng rng(4242);
  for (int round = 0; round < 50; ++round) {
    KnowledgeBase kb(table.schema());
    const CellRef var = {4, static_cast<std::size_t>(rng.NextBelow(4)) + 1};
    const Level domain = table.schema().domain_size(var.attribute);
    // Apply 1-3 random (possibly conflicting) restrictions.
    const int facts = 1 + static_cast<int>(rng.NextBelow(3));
    for (int f = 0; f < facts; ++f) {
      const Level bound = static_cast<Level>(rng.NextBelow(
          static_cast<std::uint64_t>(domain)));
      switch (rng.NextBelow(3)) {
        case 0:
          (void)kb.RestrictLess(var, bound);
          break;
        case 1:
          (void)kb.RestrictGreater(var, bound);
          break;
        default:
          (void)kb.RestrictEqual(var, bound);
      }
    }
    const auto [lo, hi] = kb.Bounds(var);
    ASSERT_LE(lo, hi);
    ASSERT_GE(lo, 0);
    ASSERT_LT(hi, domain);

    std::vector<double> raw(static_cast<std::size_t>(domain));
    double total = 0.0;
    for (double& p : raw) {
      p = rng.NextDouble();
      total += p;
    }
    for (double& p : raw) p /= total;
    const auto conditioned = kb.ConditionDistribution(var, raw);
    double sum = 0.0;
    for (std::size_t v = 0; v < conditioned.size(); ++v) {
      const auto level = static_cast<Level>(v);
      if (level < lo || level > hi) {
        EXPECT_DOUBLE_EQ(conditioned[v], 0.0);
      }
      sum += conditioned[v];
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace bayescrowd
