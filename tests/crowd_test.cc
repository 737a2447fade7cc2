// Tests for the crowd substrate: tasks, conflicts, the simulated
// platform and majority voting.

#include <gtest/gtest.h>

#include <algorithm>

#include "crowd/platform.h"
#include "crowd/quality.h"
#include "crowd/task.h"
#include "data/generators.h"

namespace bayescrowd {
namespace {

CellRef V(std::size_t o, std::size_t a) { return {o, a}; }

TEST(TaskTest, QuestionTextNamesOperands) {
  const Table table = MakeSampleMovieDataset();
  Task task;
  task.expression = Expression::VarConst(V(4, 1), CmpOp::kLess, 2);
  const std::string text = task.QuestionText(table);
  EXPECT_NE(text.find("Star Wars"), std::string::npos);
  EXPECT_NE(text.find("a2"), std::string::npos);
  EXPECT_NE(text.find("2"), std::string::npos);
}

TEST(TaskTest, ConflictsOnSharedVariable) {
  Task a;
  a.expression = Expression::VarConst(V(4, 1), CmpOp::kLess, 2);
  Task b;
  b.expression = Expression::VarVar(V(4, 1), CmpOp::kGreater, V(1, 1));
  Task c;
  c.expression = Expression::VarConst(V(4, 2), CmpOp::kLess, 3);
  EXPECT_TRUE(TasksConflict(a, b));
  EXPECT_FALSE(TasksConflict(a, c));
}

TEST(PlatformTest, TrueRelations) {
  const Table gt = MakeSampleMovieGroundTruth();
  // Var(o5,a3) = 3 in the ground truth.
  EXPECT_EQ(
      TrueRelation(gt, Expression::VarConst(V(4, 2), CmpOp::kLess, 4))
          .value(),
      Ordering::kLess);
  EXPECT_EQ(
      TrueRelation(gt, Expression::VarConst(V(4, 2), CmpOp::kGreater, 3))
          .value(),
      Ordering::kEqual);
  // Var(o5,a2)=3 vs Var(o2,a2)=4.
  EXPECT_EQ(TrueRelation(gt, Expression::VarVar(V(4, 1), CmpOp::kGreater,
                                                V(1, 1)))
                .value(),
            Ordering::kLess);
}

TEST(PlatformTest, PerfectWorkersAlwaysReturnTruth) {
  const Table gt = MakeSampleMovieGroundTruth();
  SimulatedPlatformOptions options;
  options.worker_accuracy = 1.0;
  SimulatedCrowdPlatform platform(gt, options);
  std::vector<Task> batch(1);
  batch[0].expression = Expression::VarConst(V(4, 3), CmpOp::kLess, 4);
  for (int i = 0; i < 20; ++i) {
    const auto answers = platform.PostBatch(batch);
    ASSERT_TRUE(answers.ok());
    EXPECT_EQ(answers.value()[0].relation, Ordering::kLess);
  }
  EXPECT_EQ(platform.total_tasks(), 20u);
  EXPECT_EQ(platform.total_rounds(), 20u);
}

TEST(PlatformTest, MajorityVotingBeatsSingleWorker) {
  const Table gt = MakeSampleMovieGroundTruth();
  const Expression expr = Expression::VarConst(V(4, 3), CmpOp::kLess, 4);
  const int trials = 3000;

  const auto accuracy_with_workers = [&](int workers) {
    SimulatedPlatformOptions options;
    options.worker_accuracy = 0.7;
    options.workers_per_task = workers;
    options.seed = 4242;
    SimulatedCrowdPlatform platform(gt, options);
    std::vector<Task> batch(1);
    batch[0].expression = expr;
    int correct = 0;
    for (int i = 0; i < trials; ++i) {
      const auto answers = platform.PostBatch(batch);
      if (answers.ok() && answers.value()[0].relation == Ordering::kLess) {
        ++correct;
      }
    }
    return static_cast<double>(correct) / trials;
  };

  const double single = accuracy_with_workers(1);
  const double majority = accuracy_with_workers(3);
  EXPECT_NEAR(single, 0.7, 0.04);
  EXPECT_GT(majority, single + 0.05);
}

TEST(PlatformTest, AccuracyPoolDrawsMixedWorkers) {
  const Table gt = MakeSampleMovieGroundTruth();
  SimulatedPlatformOptions options;
  options.accuracy_pool = {0.55, 0.95};
  options.workers_per_task = 1;
  options.seed = 7;
  SimulatedCrowdPlatform platform(gt, options);
  std::vector<Task> batch(1);
  batch[0].expression = Expression::VarConst(V(4, 3), CmpOp::kLess, 4);
  int correct = 0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) {
    const auto answers = platform.PostBatch(batch);
    ASSERT_TRUE(answers.ok());
    correct += answers.value()[0].relation == Ordering::kLess ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(correct) / trials, 0.75, 0.04);
}

TEST(PlatformTest, BatchAccountingCountsTasksAndRounds) {
  const Table gt = MakeSampleMovieGroundTruth();
  SimulatedCrowdPlatform platform(gt, {});
  std::vector<Task> batch(2);
  batch[0].expression = Expression::VarConst(V(4, 3), CmpOp::kLess, 4);
  batch[1].expression = Expression::VarConst(V(4, 2), CmpOp::kGreater, 2);
  ASSERT_TRUE(platform.PostBatch(batch).ok());
  EXPECT_EQ(platform.total_tasks(), 2u);
  EXPECT_EQ(platform.total_rounds(), 1u);
  EXPECT_FALSE(platform.PostBatch({}).ok());  // Empty batch rejected.
}

TEST(PlatformTest, MissingGroundTruthCellFails) {
  const Table incomplete = MakeSampleMovieDataset();  // Has missing cells.
  SimulatedCrowdPlatform platform(incomplete, {});
  std::vector<Task> batch(1);
  batch[0].expression = Expression::VarConst(V(4, 3), CmpOp::kLess, 4);
  EXPECT_FALSE(platform.PostBatch(batch).ok());
}

}  // namespace
}  // namespace bayescrowd
