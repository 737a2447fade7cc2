// Tests for probability computation: expression probabilities, Naive
// enumeration, ADPLL (including the paper's Example 3 golden value) and
// the sampling estimators. Property tests assert Naive == ADPLL on
// random conditions.

#include <gtest/gtest.h>

#include "common/random.h"
#include "ctable/builder.h"
#include "data/generators.h"
#include "data/missing.h"
#include "probability/adpll.h"
#include "probability/distributions.h"
#include "probability/evaluator.h"
#include "probability/naive.h"
#include "probability/sampling.h"

namespace bayescrowd {
namespace {

CellRef V(std::size_t o, std::size_t a) { return {o, a}; }

// Distributions of the paper's Example 3 for the sample dataset.
DistributionMap SampleDistributions() {
  DistributionMap dists;
  const auto marginals = SampleMovieDistributions();
  const Table table = MakeSampleMovieDataset();
  for (const CellRef& cell : table.MissingCells()) {
    BAYESCROWD_CHECK_OK(dists.Set(cell, marginals[cell.attribute]));
  }
  return dists;
}

// ------------------------------------------------------------------ //
// DistributionMap / ExpressionProbability
// ------------------------------------------------------------------ //

TEST(DistributionMapTest, RejectsUnnormalized) {
  DistributionMap dists;
  EXPECT_FALSE(dists.Set(V(0, 0), {0.5, 0.2}).ok());
  EXPECT_FALSE(dists.Set(V(0, 0), {}).ok());
  EXPECT_FALSE(dists.Set(V(0, 0), {1.2, -0.2}).ok());
  EXPECT_TRUE(dists.Set(V(0, 0), {0.5, 0.5}).ok());
}

TEST(DistributionMapTest, ProbGreaterAndLess) {
  DistributionMap dists;
  ASSERT_TRUE(dists.Set(V(0, 0), {0.1, 0.2, 0.3, 0.4}).ok());
  EXPECT_NEAR(dists.ProbGreater(V(0, 0), 1).value(), 0.7, 1e-12);
  EXPECT_NEAR(dists.ProbLess(V(0, 0), 2).value(), 0.3, 1e-12);
  EXPECT_NEAR(dists.ProbGreater(V(0, 0), 3).value(), 0.0, 1e-12);
  EXPECT_NEAR(dists.ProbLess(V(0, 0), 0).value(), 0.0, 1e-12);
}

TEST(ExpressionProbabilityTest, VarConst) {
  DistributionMap dists = SampleDistributions();
  // P(Var(o5,a2) < 2) = 0.2 under uniform-over-10.
  const auto p = ExpressionProbability(
      Expression::VarConst(V(4, 1), CmpOp::kLess, 2), dists);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(p.value(), 0.2, 1e-12);
}

TEST(ExpressionProbabilityTest, VarVarUniform) {
  DistributionMap dists;
  ASSERT_TRUE(dists.Set(V(0, 0), std::vector<double>(10, 0.1)).ok());
  ASSERT_TRUE(dists.Set(V(1, 0), std::vector<double>(10, 0.1)).ok());
  // P(A > B) for iid uniform over 10 values = (1 - P(A=B)) / 2 = 0.45.
  const auto p = ExpressionProbability(
      Expression::VarVar(V(0, 0), CmpOp::kGreater, V(1, 0)), dists);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(p.value(), 0.45, 1e-12);
  const auto q = ExpressionProbability(
      Expression::VarVar(V(0, 0), CmpOp::kLess, V(1, 0)), dists);
  ASSERT_TRUE(q.ok());
  EXPECT_NEAR(q.value(), 0.45, 1e-12);
}

TEST(ExpressionProbabilityTest, VarVarMixedDomains) {
  DistributionMap dists;
  ASSERT_TRUE(dists.Set(V(0, 0), {0.5, 0.5}).ok());           // {0, 1}
  ASSERT_TRUE(dists.Set(V(1, 0), {0.25, 0.25, 0.25, 0.25}).ok());
  // P(A > B) = P(A=1) P(B=0) = 0.5 * 0.25 = 0.125.
  const auto p = ExpressionProbability(
      Expression::VarVar(V(0, 0), CmpOp::kGreater, V(1, 0)), dists);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(p.value(), 0.125, 1e-12);
  // P(A < B): A=0 -> B in {1,2,3} (0.75); A=1 -> B in {2,3} (0.5).
  const auto q = ExpressionProbability(
      Expression::VarVar(V(0, 0), CmpOp::kLess, V(1, 0)), dists);
  ASSERT_TRUE(q.ok());
  EXPECT_NEAR(q.value(), 0.5 * 0.75 + 0.5 * 0.5, 1e-12);
}

// ------------------------------------------------------------------ //
// Example 3: Pr(φ(o5)) = 0.823.
// ------------------------------------------------------------------ //

Condition PhiO5() {
  const Table table = MakeSampleMovieDataset();
  const auto ctable = BuildCTable(table, {.alpha = -1.0});
  BAYESCROWD_CHECK_OK(ctable.status());
  return ctable->condition(4);
}

TEST(Example3Test, NaiveComputes0823) {
  const auto p = NaiveProbability(PhiO5(), SampleDistributions());
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(p.value(), 0.823, 5e-4);
}

TEST(Example3Test, AdpllComputes0823) {
  const auto p = AdpllProbability(PhiO5(), SampleDistributions());
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(p.value(), 0.823, 5e-4);
}

TEST(Example3Test, AllPhiProbabilitiesAgreeAcrossMethods) {
  const Table table = MakeSampleMovieDataset();
  const auto ctable = BuildCTable(table, {.alpha = -1.0});
  ASSERT_TRUE(ctable.ok());
  const DistributionMap dists = SampleDistributions();
  for (std::size_t i = 0; i < table.num_objects(); ++i) {
    const auto naive = NaiveProbability(ctable->condition(i), dists);
    const auto adpll = AdpllProbability(ctable->condition(i), dists);
    ASSERT_TRUE(naive.ok());
    ASSERT_TRUE(adpll.ok());
    EXPECT_NEAR(naive.value(), adpll.value(), 1e-9) << "object " << i;
  }
}

// ------------------------------------------------------------------ //
// Decided conditions and corner cases.
// ------------------------------------------------------------------ //

TEST(AdpllTest, DecidedConditions) {
  DistributionMap dists;
  EXPECT_DOUBLE_EQ(AdpllProbability(Condition::True(), dists).value(), 1.0);
  EXPECT_DOUBLE_EQ(AdpllProbability(Condition::False(), dists).value(), 0.0);
  EXPECT_DOUBLE_EQ(NaiveProbability(Condition::True(), dists).value(), 1.0);
  EXPECT_DOUBLE_EQ(NaiveProbability(Condition::False(), dists).value(), 0.0);
}

TEST(AdpllTest, MissingDistributionIsNotFound) {
  const Condition c = Condition::Cnf(
      {{Expression::VarConst(V(9, 9), CmpOp::kLess, 1)}});
  DistributionMap dists;
  EXPECT_TRUE(AdpllProbability(c, dists).status().IsNotFound());
  EXPECT_TRUE(NaiveProbability(c, dists).status().IsNotFound());
}

TEST(AdpllTest, SharedVariableWithinConjunctIsExact) {
  // (A>2 | A<1): P = P(A>2) + P(A<1) — the naive product rule would
  // produce 1-(1-p)(1-q) instead; ADPLL must detect the shared variable.
  DistributionMap dists;
  ASSERT_TRUE(dists.Set(V(0, 0), std::vector<double>(10, 0.1)).ok());
  const Condition c = Condition::Cnf({{
      Expression::VarConst(V(0, 0), CmpOp::kGreater, 2),
      Expression::VarConst(V(0, 0), CmpOp::kLess, 1),
  }});
  const auto p = AdpllProbability(c, dists);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(p.value(), 0.7 + 0.1, 1e-12);
}

TEST(AdpllTest, RecursionBudgetEnforced) {
  DistributionMap dists = SampleDistributions();
  AdpllOptions options;
  options.max_calls = 1;
  options.component_decomposition = false;
  options.star_fast_path = false;  // Force branching.
  const auto p = AdpllProbability(PhiO5(), dists, options);
  EXPECT_EQ(p.status().code(), StatusCode::kResourceExhausted);
}

TEST(AdpllTest, StarFastPathMatchesBranchingOnPhiO5) {
  DistributionMap dists = SampleDistributions();
  AdpllOptions star;
  AdpllOptions branch;
  branch.star_fast_path = false;
  AdpllStats star_stats;
  const auto with_star = AdpllProbability(PhiO5(), dists, star, &star_stats);
  const auto without = AdpllProbability(PhiO5(), dists, branch);
  ASSERT_TRUE(with_star.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_NEAR(with_star.value(), without.value(), 1e-12);
  EXPECT_GT(star_stats.direct_evals, 0u);
}

TEST(NaiveTest, AssignmentSpaceLimitEnforced) {
  DistributionMap dists = SampleDistributions();
  NaiveOptions options;
  options.max_assignments = 10;
  const auto p = NaiveProbability(PhiO5(), dists, options);
  EXPECT_EQ(p.status().code(), StatusCode::kResourceExhausted);
}

// ------------------------------------------------------------------ //
// Property tests: random CNF conditions, Naive == ADPLL under every
// heuristic and with/without component decomposition.
// ------------------------------------------------------------------ //

struct RandomConditionCase {
  std::uint64_t seed;
  std::size_t num_vars;
  std::size_t num_conjuncts;
  std::size_t max_disjuncts;
};

class RandomConditionTest
    : public ::testing::TestWithParam<RandomConditionCase> {};

// Builds a random condition over `num_vars` variables with random
// domains (2..6 levels) and random distributions.
void MakeRandomCase(const RandomConditionCase& param, Condition* condition,
                    DistributionMap* dists) {
  Rng rng(param.seed);
  std::vector<CellRef> vars;
  std::vector<Level> cards;
  for (std::size_t v = 0; v < param.num_vars; ++v) {
    vars.push_back(V(v, v % 3));
    cards.push_back(static_cast<Level>(2 + rng.NextBelow(5)));
    std::vector<double> dist(static_cast<std::size_t>(cards.back()));
    double total = 0.0;
    for (double& p : dist) {
      p = 0.05 + rng.NextDouble();
      total += p;
    }
    for (double& p : dist) p /= total;
    BAYESCROWD_CHECK_OK(dists->Set(vars[v], dist));
  }
  std::vector<Conjunct> conjuncts;
  for (std::size_t c = 0; c < param.num_conjuncts; ++c) {
    Conjunct conj;
    const std::size_t width = 1 + rng.NextBelow(param.max_disjuncts);
    for (std::size_t e = 0; e < width; ++e) {
      const std::size_t v = rng.NextBelow(vars.size());
      const CmpOp op =
          rng.NextBool(0.5) ? CmpOp::kGreater : CmpOp::kLess;
      if (rng.NextBool(0.3) && vars.size() >= 2) {
        std::size_t w = rng.NextBelow(vars.size());
        if (w == v) w = (w + 1) % vars.size();
        conj.push_back(Expression::VarVar(vars[v], op, vars[w]));
      } else {
        const Level bound =
            static_cast<Level>(rng.NextBelow(
                static_cast<std::uint64_t>(cards[v]) + 1));
        conj.push_back(Expression::VarConst(vars[v], op, bound));
      }
    }
    conjuncts.push_back(std::move(conj));
  }
  *condition = Condition::Cnf(std::move(conjuncts));
}

TEST_P(RandomConditionTest, NaiveEqualsAdpll) {
  Condition condition;
  DistributionMap dists;
  MakeRandomCase(GetParam(), &condition, &dists);

  const auto naive = NaiveProbability(condition, dists);
  ASSERT_TRUE(naive.ok());

  for (const bool star : {true, false}) {
    for (const bool decomposition : {true, false}) {
      for (const BranchHeuristic heuristic :
           {BranchHeuristic::kMostFrequent, BranchHeuristic::kFirst,
            BranchHeuristic::kRandom}) {
        AdpllOptions options;
        options.star_fast_path = star;
        options.component_decomposition = decomposition;
        options.heuristic = heuristic;
        const auto adpll = AdpllProbability(condition, dists, options);
        ASSERT_TRUE(adpll.ok());
        EXPECT_NEAR(naive.value(), adpll.value(), 1e-9)
            << "star=" << star << " decomposition=" << decomposition
            << " heuristic=" << static_cast<int>(heuristic);
      }
    }
  }
}

TEST_P(RandomConditionTest, SamplingConvergesToExact) {
  Condition condition;
  DistributionMap dists;
  MakeRandomCase(GetParam(), &condition, &dists);
  const auto exact = NaiveProbability(condition, dists);
  ASSERT_TRUE(exact.ok());

  Rng rng(GetParam().seed ^ 0xabcdef);
  SamplingOptions options;
  options.num_samples = 60'000;
  const auto approx = SampledProbability(condition, dists, options, rng);
  ASSERT_TRUE(approx.ok());
  EXPECT_NEAR(approx.value(), exact.value(), 0.02);

  Rng rng2(GetParam().seed ^ 0x123456);
  const auto rb =
      SampledProbabilityRaoBlackwell(condition, dists, options, rng2);
  ASSERT_TRUE(rb.ok());
  EXPECT_NEAR(rb.value(), exact.value(), 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomConditionTest,
    ::testing::Values(
        RandomConditionCase{101, 2, 1, 2}, RandomConditionCase{102, 3, 2, 2},
        RandomConditionCase{103, 4, 3, 3}, RandomConditionCase{104, 5, 4, 3},
        RandomConditionCase{105, 6, 4, 4}, RandomConditionCase{106, 6, 6, 3},
        RandomConditionCase{107, 7, 5, 4}, RandomConditionCase{108, 8, 6, 4},
        RandomConditionCase{109, 4, 8, 2}, RandomConditionCase{110, 8, 3, 5},
        RandomConditionCase{111, 5, 5, 5}, RandomConditionCase{112, 7, 7, 2},
        RandomConditionCase{113, 3, 9, 3}, RandomConditionCase{114, 9, 4, 3},
        RandomConditionCase{115, 6, 2, 6}, RandomConditionCase{116, 2, 10, 2}));

// ------------------------------------------------------------------ //
// Real c-tables: methods agree on conditions produced by Get-CTable.
// ------------------------------------------------------------------ //

TEST(RealCTableTest, MethodsAgreeOnGeneratedData) {
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const Table complete = MakeIndependent(40, 3, 5, 700 + seed);
    const Table table = InjectMissingUniform(complete, 0.12, rng);
    const auto ctable = BuildCTable(table, {.alpha = -1.0});
    ASSERT_TRUE(ctable.ok());

    DistributionMap dists;
    for (const CellRef& cell : table.MissingCells()) {
      const auto card = static_cast<std::size_t>(
          table.schema().domain_size(cell.attribute));
      BAYESCROWD_CHECK_OK(dists.Set(
          cell,
          std::vector<double>(card, 1.0 / static_cast<double>(card))));
    }

    for (std::size_t i = 0; i < table.num_objects(); ++i) {
      const Condition& cond = ctable->condition(i);
      if (cond.IsDecided()) continue;
      if (cond.Variables().size() > 8) continue;  // Keep Naive tractable.
      ++checked;
      const auto naive = NaiveProbability(cond, dists);
      const auto adpll = AdpllProbability(cond, dists);
      ASSERT_TRUE(naive.ok()) << naive.status();
      ASSERT_TRUE(adpll.ok()) << adpll.status();
      EXPECT_NEAR(naive.value(), adpll.value(), 1e-9)
          << "seed " << seed << " object " << i;
    }
  }
  EXPECT_GT(checked, 10u) << "test nearly vacuous";
}

// ------------------------------------------------------------------ //
// Evaluator facade.
// ------------------------------------------------------------------ //

TEST(EvaluatorTest, DispatchesAllMethods) {
  const Condition phi = PhiO5();
  for (const ProbabilityMethod method :
       {ProbabilityMethod::kAdpll, ProbabilityMethod::kNaive,
        ProbabilityMethod::kSampled,
        ProbabilityMethod::kSampledRaoBlackwell}) {
    ProbabilityOptions options;
    options.method = method;
    options.sampling.num_samples = 50'000;
    ProbabilityEvaluator evaluator(options);
    const auto marginals = SampleMovieDistributions();
    for (const CellRef& cell : MakeSampleMovieDataset().MissingCells()) {
      BAYESCROWD_CHECK_OK(
          evaluator.distributions().Set(cell, marginals[cell.attribute]));
    }
    const auto p = evaluator.Probability(phi);
    ASSERT_TRUE(p.ok()) << ProbabilityMethodToString(method);
    EXPECT_NEAR(p.value(), 0.823, 0.02)
        << ProbabilityMethodToString(method);
  }
}

TEST(EvaluatorTest, StatsAccumulate) {
  ProbabilityEvaluator evaluator;
  const auto marginals = SampleMovieDistributions();
  for (const CellRef& cell : MakeSampleMovieDataset().MissingCells()) {
    BAYESCROWD_CHECK_OK(
        evaluator.distributions().Set(cell, marginals[cell.attribute]));
  }
  ASSERT_TRUE(evaluator.Probability(PhiO5()).ok());
  EXPECT_GT(evaluator.adpll_stats().calls, 0u);
}

}  // namespace
}  // namespace bayescrowd
