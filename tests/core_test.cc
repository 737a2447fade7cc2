// Tests for the core framework: entropy (Eq. 3), marginal utility
// (Definition 6, validated against the paper's Example 4 numbers), task
// selection strategies, answer application and the full BayesCrowd
// pipeline on the sample dataset.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "bayesnet/imputation.h"
#include "core/entropy.h"
#include "core/framework.h"
#include "core/report.h"
#include "core/strategy.h"
#include "core/update.h"
#include "core/utility.h"
#include "crowd/platform.h"
#include "ctable/builder.h"
#include "data/generators.h"
#include "skyline/algorithms.h"
#include "skyline/metrics.h"

namespace bayescrowd {
namespace {

CellRef V(std::size_t o, std::size_t a) { return {o, a}; }

// Evaluator loaded with the Example 3 marginals.
ProbabilityEvaluator SampleEvaluator() {
  ProbabilityEvaluator evaluator;
  const auto marginals = SampleMovieDistributions();
  for (const CellRef& cell : MakeSampleMovieDataset().MissingCells()) {
    BAYESCROWD_CHECK_OK(
        evaluator.distributions().Set(cell, marginals[cell.attribute]));
  }
  return evaluator;
}

CTable SampleCTable() {
  const auto ctable = BuildCTable(MakeSampleMovieDataset(), {.alpha = -1.0});
  BAYESCROWD_CHECK_OK(ctable.status());
  return std::move(ctable).value();
}

// ------------------------------------------------------------------ //
// Entropy
// ------------------------------------------------------------------ //

TEST(EntropyTest, ExtremesAreZero) {
  EXPECT_DOUBLE_EQ(BinaryEntropy(0.0), 0.0);
  EXPECT_DOUBLE_EQ(BinaryEntropy(1.0), 0.0);
  EXPECT_DOUBLE_EQ(BinaryEntropy(-0.1), 0.0);
  EXPECT_DOUBLE_EQ(BinaryEntropy(1.1), 0.0);
}

TEST(EntropyTest, FairCoinIsOne) {
  EXPECT_DOUBLE_EQ(BinaryEntropy(0.5), 1.0);
}

TEST(EntropyTest, Symmetric) {
  EXPECT_DOUBLE_EQ(BinaryEntropy(0.2), BinaryEntropy(0.8));
}

// ------------------------------------------------------------------ //
// Example 4, first iteration: entropies and marginal utilities.
// ------------------------------------------------------------------ //

TEST(Example4Test, InitialEntropiesMatchPaper) {
  CTable ctable = SampleCTable();
  ProbabilityEvaluator evaluator = SampleEvaluator();
  // H(o2) = H(o3) = 0 (conditions true).
  EXPECT_TRUE(ctable.condition(1).IsTrue());
  EXPECT_TRUE(ctable.condition(2).IsTrue());
  // H(o1) = 0.72, H(o4) = 0.62, H(o5) = 0.67 (paper's rounding).
  const double p1 = evaluator.Probability(ctable.condition(0)).value();
  const double p4 = evaluator.Probability(ctable.condition(3)).value();
  const double p5 = evaluator.Probability(ctable.condition(4)).value();
  EXPECT_NEAR(p1, 0.8, 1e-9);
  EXPECT_NEAR(p4, 0.153, 1e-9);
  EXPECT_NEAR(BinaryEntropy(p1), 0.72, 5e-3);
  EXPECT_NEAR(BinaryEntropy(p4), 0.62, 5e-3);
  EXPECT_NEAR(BinaryEntropy(p5), 0.67, 5e-3);
}

TEST(Example4Test, MarginalUtilitiesMatchPaper) {
  CTable ctable = SampleCTable();
  ProbabilityEvaluator evaluator = SampleEvaluator();
  const Condition& phi1 = ctable.condition(0);
  const double p1 = evaluator.Probability(phi1).value();

  const Expression e1 = Expression::VarConst(V(4, 1), CmpOp::kLess, 2);
  const Expression e2 = Expression::VarConst(V(4, 2), CmpOp::kLess, 3);
  const Expression e3 = Expression::VarConst(V(4, 3), CmpOp::kLess, 4);

  EXPECT_NEAR(MarginalUtility(phi1, p1, e1, evaluator).value(), 0.072,
              2e-3);
  EXPECT_NEAR(MarginalUtility(phi1, p1, e2, evaluator).value(), 0.157,
              2e-3);
  EXPECT_NEAR(MarginalUtility(phi1, p1, e3, evaluator).value(), 0.322,
              2e-3);

  // The star pass scores all three from one hub enumeration and agrees
  // with the per-candidate values to rounding.
  const std::vector<Expression> candidates = {e1, e2, e3};
  const auto pass =
      StarPassUtilities({{&phi1, p1, &candidates}}, evaluator).value();
  ASSERT_TRUE(pass.front().has_value());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_NEAR((*pass.front())[i],
                MarginalUtility(phi1, p1, candidates[i], evaluator).value(),
                1e-12);
  }
}

TEST(Example4Test, FixExpressionSimplifies) {
  CTable ctable = SampleCTable();
  const Expression e3 = Expression::VarConst(V(4, 3), CmpOp::kLess, 4);
  // φ(o1) with e3=true collapses to true.
  EXPECT_TRUE(FixExpression(ctable.condition(0), e3, true).IsTrue());
  // With e3=false, two expressions remain.
  const Condition c = FixExpression(ctable.condition(0), e3, false);
  ASSERT_FALSE(c.IsDecided());
  EXPECT_EQ(c.NumExpressions(), 2u);
}

// ------------------------------------------------------------------ //
// Example 4, knowledge-base update: the Table 5 state and the
// second-iteration entropies.
// ------------------------------------------------------------------ //

TEST(Example4Test, CTableUpdateMatchesPaperTable5) {
  CTable ctable = SampleCTable();
  KnowledgeBase kb(MakeSampleMovieDataset().schema());
  // Answers of iteration 1: Var(o5,a4) < 4 and Var(o5,a3) = 3.
  ASSERT_TRUE(kb.RestrictLess(V(4, 3), 4).ok());
  ASSERT_TRUE(kb.RestrictEqual(V(4, 2), 3).ok());

  const auto simplify = [&kb](const Condition& c) {
    return c.SimplifyWith(
        [&kb](const Expression& e) { return kb.Evaluate(e); });
  };

  // φ(o1) -> true.
  EXPECT_TRUE(simplify(ctable.condition(0)).IsTrue());
  // φ(o4) -> (Var(o2,a2)<3) & (Var(o5,a2)<3 | Var(o5,a4)<2).
  const Condition phi4 = simplify(ctable.condition(3));
  ASSERT_FALSE(phi4.IsDecided());
  ASSERT_EQ(phi4.conjuncts().size(), 2u);
  EXPECT_EQ(phi4.conjuncts()[0].size(), 1u);
  EXPECT_EQ(phi4.conjuncts()[1].size(), 2u);
  // φ(o5) -> Var(o5,a2) > 2.
  const Condition phi5 = simplify(ctable.condition(4));
  ASSERT_FALSE(phi5.IsDecided());
  ASSERT_EQ(phi5.conjuncts().size(), 1u);
  ASSERT_EQ(phi5.conjuncts()[0].size(), 1u);
  EXPECT_TRUE(phi5.conjuncts()[0][0] ==
              Expression::VarConst(V(4, 1), CmpOp::kGreater, 2));
}

TEST(Example4Test, SecondIterationEntropiesMatchPaper) {
  CTable ctable = SampleCTable();
  const Table table = MakeSampleMovieDataset();
  KnowledgeBase kb(table.schema());
  ASSERT_TRUE(kb.RestrictLess(V(4, 3), 4).ok());
  ASSERT_TRUE(kb.RestrictEqual(V(4, 2), 3).ok());

  // Re-condition distributions as the framework does.
  ProbabilityEvaluator evaluator;
  const auto marginals = SampleMovieDistributions();
  for (const CellRef& cell : table.MissingCells()) {
    BAYESCROWD_CHECK_OK(evaluator.distributions().Set(
        cell, kb.ConditionDistribution(cell, marginals[cell.attribute])));
  }
  const auto simplify = [&kb](const Condition& c) {
    return c.SimplifyWith(
        [&kb](const Expression& e) { return kb.Evaluate(e); });
  };

  // Paper: H(o4) = 0.63 and H(o5) = 0.88 in iteration 2.
  const double p4 =
      evaluator.Probability(simplify(ctable.condition(3))).value();
  const double p5 =
      evaluator.Probability(simplify(ctable.condition(4))).value();
  EXPECT_NEAR(BinaryEntropy(p4), 0.63, 5e-3);
  EXPECT_NEAR(BinaryEntropy(p5), 0.88, 5e-3);
}

// ------------------------------------------------------------------ //
// ApplyAnswer
// ------------------------------------------------------------------ //

TEST(ApplyAnswerTest, VarConstAnswersNarrow) {
  const Table table = MakeSampleMovieDataset();
  KnowledgeBase kb(table.schema());
  Task task;
  task.expression = Expression::VarConst(V(4, 3), CmpOp::kLess, 4);
  ASSERT_TRUE(ApplyAnswer(task, {Ordering::kLess}, &kb).ok());
  EXPECT_EQ(kb.Bounds(V(4, 3)).second, 3);

  task.expression = Expression::VarConst(V(4, 1), CmpOp::kGreater, 2);
  ASSERT_TRUE(ApplyAnswer(task, {Ordering::kGreater}, &kb).ok());
  EXPECT_EQ(kb.Bounds(V(4, 1)).first, 3);

  task.expression = Expression::VarConst(V(4, 2), CmpOp::kLess, 3);
  ASSERT_TRUE(ApplyAnswer(task, {Ordering::kEqual}, &kb).ok());
  Level pinned = -1;
  EXPECT_TRUE(kb.IsPinned(V(4, 2), &pinned));
  EXPECT_EQ(pinned, 3);
}

TEST(ApplyAnswerTest, VarVarAnswerRecordsOrder) {
  const Table table = MakeSampleMovieDataset();
  KnowledgeBase kb(table.schema());
  Task task;
  task.expression = Expression::VarVar(V(4, 1), CmpOp::kGreater, V(1, 1));
  ASSERT_TRUE(ApplyAnswer(task, {Ordering::kGreater}, &kb).ok());
  EXPECT_EQ(kb.Evaluate(task.expression), Truth::kTrue);
}

TEST(ApplyAnswerTest, ImpossibleAnswerDegradesToPin) {
  const Table table = MakeSampleMovieDataset();
  KnowledgeBase kb(table.schema());
  Task task;
  // "Var(o5,a4) < 4" answered "greater" is possible (5 exists: domain 6).
  // But an erroneous "less" on a bound of 0 pins the variable to 0.
  task.expression = Expression::VarConst(V(4, 3), CmpOp::kGreater, 0);
  ASSERT_TRUE(ApplyAnswer(task, {Ordering::kLess}, &kb).ok());
  Level pinned = -1;
  EXPECT_TRUE(kb.IsPinned(V(4, 3), &pinned));
  EXPECT_EQ(pinned, 0);
}

// ------------------------------------------------------------------ //
// Task selection
// ------------------------------------------------------------------ //

std::vector<ObjectEntropy> RankAll(const CTable& ctable,
                                   ProbabilityEvaluator& evaluator) {
  std::vector<ObjectEntropy> ranked;
  for (std::size_t i : ctable.UndecidedObjects()) {
    ObjectEntropy entry;
    entry.object = i;
    entry.probability = evaluator.Probability(ctable.condition(i)).value();
    entry.entropy = BinaryEntropy(entry.probability);
    ranked.push_back(entry);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const ObjectEntropy& a, const ObjectEntropy& b) {
                     return a.entropy > b.entropy;
                   });
  return ranked;
}

TEST(StrategyTest, TopEntropyObjectsChosenFirst) {
  // Paper: iteration 1 picks o1 (H=0.72) and o5 (H=0.67).
  CTable ctable = SampleCTable();
  ProbabilityEvaluator evaluator = SampleEvaluator();
  const auto ranked = RankAll(ctable, evaluator);
  ASSERT_GE(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].object, 0u);  // o1
  EXPECT_EQ(ranked[1].object, 4u);  // o5
  EXPECT_EQ(ranked[2].object, 3u);  // o4
}

TEST(StrategyTest, UbsPicksHighestUtilityExpression) {
  CTable ctable = SampleCTable();
  ProbabilityEvaluator evaluator = SampleEvaluator();
  const auto ranked = RankAll(ctable, evaluator);
  StrategyOptions options;
  options.kind = StrategyKind::kUbs;
  const auto tasks = SelectTasks(ctable, ranked, 2, evaluator, options);
  ASSERT_TRUE(tasks.ok());
  ASSERT_EQ(tasks->size(), 2u);
  // For o1 the best expression is e3 = Var(o5,a4) < 4 (G = 0.322).
  EXPECT_EQ(tasks.value()[0].source_object, 0u);
  EXPECT_TRUE(tasks.value()[0].expression ==
              Expression::VarConst(V(4, 3), CmpOp::kLess, 4));
}

TEST(StrategyTest, BatchIsConflictFree) {
  CTable ctable = SampleCTable();
  ProbabilityEvaluator evaluator = SampleEvaluator();
  const auto ranked = RankAll(ctable, evaluator);
  for (const StrategyKind kind :
       {StrategyKind::kFbs, StrategyKind::kUbs, StrategyKind::kHhs}) {
    StrategyOptions options;
    options.kind = kind;
    const auto tasks = SelectTasks(ctable, ranked, 3, evaluator, options);
    ASSERT_TRUE(tasks.ok()) << StrategyKindToString(kind);
    for (std::size_t a = 0; a < tasks->size(); ++a) {
      for (std::size_t b = a + 1; b < tasks->size(); ++b) {
        EXPECT_FALSE(TasksConflict(tasks.value()[a], tasks.value()[b]))
            << StrategyKindToString(kind);
      }
    }
  }
}

TEST(StrategyTest, RespectsBatchSizeK) {
  CTable ctable = SampleCTable();
  ProbabilityEvaluator evaluator = SampleEvaluator();
  const auto ranked = RankAll(ctable, evaluator);
  StrategyOptions options;
  options.kind = StrategyKind::kFbs;
  const auto one = SelectTasks(ctable, ranked, 1, evaluator, options);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->size(), 1u);
  const auto zero = SelectTasks(ctable, ranked, 0, evaluator, options);
  ASSERT_TRUE(zero.ok());
  EXPECT_TRUE(zero->empty());
}

TEST(StrategyTest, NearTieNeitherDisplacesEarlierCandidateNorResetsWindow) {
  // UBS: a later gain within 1e-12 of the best is a tie, and the earlier
  // candidate (frequency order) keeps the slot; a real improvement wins.
  GainScan ubs;
  ubs.Offer(0, 0.25);
  ubs.Offer(1, 0.25 + 1e-13);
  ASSERT_TRUE(ubs.selected());
  EXPECT_EQ(ubs.best_index(), 0u);
  ubs.Offer(2, 0.25 + 1e-9);
  EXPECT_EQ(ubs.best_index(), 2u);

  // HHS with m = 2: near-ties count toward the window instead of
  // resetting it, so the scan closes two candidates after the best.
  GainScan hhs(2);
  EXPECT_TRUE(hhs.Offer(0, 0.5));
  EXPECT_TRUE(hhs.Offer(1, 0.5 + 5e-13));
  EXPECT_FALSE(hhs.Offer(2, 0.5 + 9e-13));
  EXPECT_EQ(hhs.best_index(), 0u);

  // A strict improvement still resets the window.
  GainScan reset(2);
  EXPECT_TRUE(reset.Offer(0, 0.5));
  EXPECT_TRUE(reset.Offer(1, 0.4));
  EXPECT_TRUE(reset.Offer(2, 0.6));
  EXPECT_TRUE(reset.Offer(3, 0.6));
  EXPECT_FALSE(reset.Offer(4, 0.1));
  EXPECT_EQ(reset.best_index(), 2u);
}

TEST(StrategyTest, HhsWithLargeMEqualsUbsChoice) {
  CTable ctable = SampleCTable();
  ProbabilityEvaluator evaluator = SampleEvaluator();
  const auto ranked = RankAll(ctable, evaluator);
  StrategyOptions ubs;
  ubs.kind = StrategyKind::kUbs;
  StrategyOptions hhs;
  hhs.kind = StrategyKind::kHhs;
  hhs.m = 100;  // Effectively exhaustive.
  const auto ubs_tasks = SelectTasks(ctable, ranked, 2, evaluator, ubs);
  const auto hhs_tasks = SelectTasks(ctable, ranked, 2, evaluator, hhs);
  ASSERT_TRUE(ubs_tasks.ok());
  ASSERT_TRUE(hhs_tasks.ok());
  ASSERT_EQ(ubs_tasks->size(), hhs_tasks->size());
  for (std::size_t i = 0; i < ubs_tasks->size(); ++i) {
    EXPECT_TRUE(ubs_tasks.value()[i].expression ==
                hhs_tasks.value()[i].expression);
  }
}

// ------------------------------------------------------------------ //
// Full framework on the sample dataset.
// ------------------------------------------------------------------ //

TEST(FrameworkTest, SampleDatasetPerfectWorkersExactAnswer) {
  const Table incomplete = MakeSampleMovieDataset();
  const Table ground_truth = MakeSampleMovieGroundTruth();

  // Ground-truth skyline: with Var(o2,a2)=4, Var(o5,*) = (3,3,3):
  const auto truth = SkylineBnl(ground_truth);
  ASSERT_TRUE(truth.ok());

  for (const StrategyKind kind :
       {StrategyKind::kFbs, StrategyKind::kUbs, StrategyKind::kHhs}) {
    BayesCrowdOptions options;
    options.ctable.alpha = -1.0;  // No pruning on 5 objects.
    options.strategy.kind = kind;
    options.strategy.m = 2;
    options.budget = 6;
    options.latency = 3;
    BayesCrowd framework(options);

    FixedMarginalsProvider posteriors(SampleMovieDistributions());
    SimulatedCrowdPlatform platform(ground_truth, {});
    const auto result = framework.Run(incomplete, posteriors, platform);
    ASSERT_TRUE(result.ok()) << StrategyKindToString(kind);

    const auto metrics =
        EvaluateResultSet(result->result_objects, truth.value());
    EXPECT_DOUBLE_EQ(metrics.f1, 1.0) << StrategyKindToString(kind);
    EXPECT_LE(result->tasks_posted, 6u);
    EXPECT_LE(result->rounds, 3u);
  }
}

TEST(FrameworkTest, ZeroBudgetAnswersFromModelAlone) {
  const Table incomplete = MakeSampleMovieDataset();
  BayesCrowdOptions options;
  options.ctable.alpha = -1.0;
  options.budget = 0;
  BayesCrowd framework(options);
  FixedMarginalsProvider posteriors(SampleMovieDistributions());
  SimulatedCrowdPlatform platform(MakeSampleMovieGroundTruth(), {});
  const auto result = framework.Run(incomplete, posteriors, platform);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tasks_posted, 0u);
  EXPECT_EQ(result->rounds, 0u);
  // o2, o3 are certain; o1 (p=0.8) and o5 (p=0.823) pass the 0.5
  // threshold; o4 (p=0.153) does not.
  EXPECT_EQ(result->result_objects,
            (std::vector<std::size_t>{0, 1, 2, 4}));
}

TEST(FrameworkTest, BudgetAndLatencyRespected) {
  const Table incomplete = MakeSampleMovieDataset();
  BayesCrowdOptions options;
  options.ctable.alpha = -1.0;
  options.budget = 4;
  options.latency = 2;
  BayesCrowd framework(options);
  FixedMarginalsProvider posteriors(SampleMovieDistributions());
  SimulatedCrowdPlatform platform(MakeSampleMovieGroundTruth(), {});
  const auto result = framework.Run(incomplete, posteriors, platform);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->tasks_posted, 4u);
  EXPECT_LE(result->rounds, 2u);
  for (const RoundLog& log : result->round_logs) {
    EXPECT_LE(log.tasks, 2u);  // ceil(4/2) per round.
  }
}

TEST(FrameworkTest, InvalidLatencyRejected) {
  BayesCrowdOptions options;
  options.latency = 0;
  BayesCrowd framework(options);
  FixedMarginalsProvider posteriors(SampleMovieDistributions());
  SimulatedCrowdPlatform platform(MakeSampleMovieGroundTruth(), {});
  EXPECT_FALSE(
      framework.Run(MakeSampleMovieDataset(), posteriors, platform).ok());
}

TEST(FrameworkTest, ResultReportsPhaseStatistics) {
  const Table incomplete = MakeSampleMovieDataset();
  BayesCrowdOptions options;
  options.ctable.alpha = -1.0;
  options.budget = 6;
  options.latency = 3;
  BayesCrowd framework(options);
  FixedMarginalsProvider posteriors(SampleMovieDistributions());
  SimulatedCrowdPlatform platform(MakeSampleMovieGroundTruth(), {});
  const auto result = framework.Run(incomplete, posteriors, platform);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->initial_true, 2u);       // o2, o3.
  EXPECT_EQ(result->initial_undecided, 3u);  // o1, o4, o5.
  EXPECT_GE(result->total_seconds, 0.0);
  EXPECT_EQ(result->probabilities.size(), 5u);
  EXPECT_DOUBLE_EQ(result->probabilities[1], 1.0);
}


TEST(ReportTest, FormatsSummaryAndDetails) {
  const Table incomplete = MakeSampleMovieDataset();
  BayesCrowdOptions options;
  options.ctable.alpha = -1.0;
  options.budget = 6;
  options.latency = 3;
  BayesCrowd framework(options);
  FixedMarginalsProvider posteriors(SampleMovieDistributions());
  SimulatedCrowdPlatform platform(MakeSampleMovieGroundTruth(), {});
  const auto result = framework.Run(incomplete, posteriors, platform);
  ASSERT_TRUE(result.ok());

  ReportOptions verbose;
  verbose.show_rounds = true;
  verbose.show_conditions = true;
  const std::string report =
      FormatRunReport(*result, incomplete, verbose);
  EXPECT_NE(report.find("BayesCrowd run"), std::string::npos);
  EXPECT_NE(report.find("round 1"), std::string::npos);
  EXPECT_NE(report.find("phi("), std::string::npos);
  EXPECT_NE(report.find("Se7en"), std::string::npos);

  ReportOptions capped;
  capped.max_objects = 1;
  const std::string short_report =
      FormatRunReport(*result, incomplete, capped);
  EXPECT_NE(short_report.find("... and"), std::string::npos);
}

}  // namespace
}  // namespace bayescrowd
