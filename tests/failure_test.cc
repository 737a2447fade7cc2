// Failure injection: how the framework behaves when its collaborators
// misbehave — erroring platforms, misaligned answers, exhausted exact
// solvers, adversarially wrong workers.

#include <gtest/gtest.h>

#include "bayesnet/imputation.h"
#include "common/random.h"
#include "core/framework.h"
#include "crowd/platform.h"
#include "data/generators.h"
#include "data/missing.h"
#include "skyline/algorithms.h"
#include "skyline/metrics.h"

namespace bayescrowd {
namespace {

// A platform that fails after `fail_after` successful rounds.
class FailingPlatform : public CrowdPlatform {
 public:
  FailingPlatform(const Table& truth, std::size_t fail_after)
      : inner_(truth, {}), fail_after_(fail_after) {}

  Result<std::vector<TaskAnswer>> PostBatch(
      const std::vector<Task>& tasks) override {
    if (inner_.total_rounds() >= fail_after_) {
      return Status::IOError("marketplace outage");
    }
    return inner_.PostBatch(tasks);
  }
  std::size_t total_tasks() const override { return inner_.total_tasks(); }
  std::size_t total_rounds() const override {
    return inner_.total_rounds();
  }

 private:
  SimulatedCrowdPlatform inner_;
  std::size_t fail_after_;
};

// A platform that returns the wrong number of answers.
class MisalignedPlatform : public CrowdPlatform {
 public:
  explicit MisalignedPlatform(const Table& truth) : inner_(truth, {}) {}

  Result<std::vector<TaskAnswer>> PostBatch(
      const std::vector<Task>& tasks) override {
    BAYESCROWD_ASSIGN_OR_RETURN(auto answers, inner_.PostBatch(tasks));
    answers.pop_back();
    return answers;
  }
  std::size_t total_tasks() const override { return inner_.total_tasks(); }
  std::size_t total_rounds() const override {
    return inner_.total_rounds();
  }

 private:
  SimulatedCrowdPlatform inner_;
};

// A platform whose workers always answer the *opposite* of the truth
// (worse than random), to probe graceful degradation.
class AdversarialPlatform : public CrowdPlatform {
 public:
  explicit AdversarialPlatform(const Table& truth) : inner_(truth, {}) {}

  Result<std::vector<TaskAnswer>> PostBatch(
      const std::vector<Task>& tasks) override {
    BAYESCROWD_ASSIGN_OR_RETURN(auto answers, inner_.PostBatch(tasks));
    for (TaskAnswer& a : answers) {
      a.relation = a.relation == Ordering::kLess ? Ordering::kGreater
                                                 : Ordering::kLess;
    }
    ++rounds_;
    return answers;
  }
  std::size_t total_tasks() const override { return inner_.total_tasks(); }
  std::size_t total_rounds() const override { return rounds_; }

 private:
  SimulatedCrowdPlatform inner_;
  std::size_t rounds_ = 0;
};

BayesCrowdOptions SmallOptions() {
  BayesCrowdOptions options;
  options.ctable.alpha = -1.0;
  options.budget = 6;
  options.latency = 3;
  return options;
}

TEST(FailureTest, PlatformOutagePropagates) {
  const Table incomplete = MakeSampleMovieDataset();
  FixedMarginalsProvider posteriors(SampleMovieDistributions());
  FailingPlatform platform(MakeSampleMovieGroundTruth(), 1);
  BayesCrowd framework(SmallOptions());
  const auto result = framework.Run(incomplete, posteriors, platform);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
}

TEST(FailureTest, MisalignedAnswersDetected) {
  const Table incomplete = MakeSampleMovieDataset();
  FixedMarginalsProvider posteriors(SampleMovieDistributions());
  MisalignedPlatform platform(MakeSampleMovieGroundTruth());
  BayesCrowd framework(SmallOptions());
  const auto result = framework.Run(incomplete, posteriors, platform);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(FailureTest, AdversarialWorkersDegradeButDoNotCrash) {
  // Every answer is inverted; the run must still terminate cleanly and
  // produce *some* result set (garbage in, garbage out — gracefully).
  const Table incomplete = MakeSampleMovieDataset();
  FixedMarginalsProvider posteriors(SampleMovieDistributions());
  AdversarialPlatform platform(MakeSampleMovieGroundTruth());
  BayesCrowd framework(SmallOptions());
  const auto result = framework.Run(incomplete, posteriors, platform);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_LE(result->tasks_posted, 6u);
  // o2/o3 are certain regardless of the crowd.
  EXPECT_EQ(result->final_ctable.condition(1).IsTrue(), true);
  EXPECT_EQ(result->final_ctable.condition(2).IsTrue(), true);
}

TEST(FailureTest, GovernedLadderRescuesExhaustedAdpll) {
  const Table complete = MakeNbaLike(150, 31, 8);
  Rng rng(32);
  const Table incomplete = InjectMissingUniform(complete, 0.12, rng);

  BayesCrowdOptions options;
  options.ctable.alpha = 0.1;
  options.budget = 20;
  options.latency = 2;
  // Cripple exact search so some solves must exhaust it.
  options.probability.adpll.max_calls = 2;
  options.probability.adpll.star_fast_path = false;
  options.probability.adpll.component_decomposition = false;

  // Ungoverned, an exhausted exact solve fails the run.
  UniformPosteriorProvider posteriors(incomplete.schema());
  SimulatedCrowdPlatform platform(complete, {});
  BayesCrowd strict_framework(options);
  const auto strict = strict_framework.Run(incomplete, posteriors, platform);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kResourceExhausted);

  // The full governed ladder degrades the same solves to graded
  // intervals instead, and the run finishes.
  options.probability.governor.max_nodes = options.probability.adpll.max_calls;
  options.probability.governor.ladder = LadderMode::kFull;
  UniformPosteriorProvider posteriors2(incomplete.schema());
  SimulatedCrowdPlatform platform2(complete, {});
  BayesCrowd framework(options);
  const auto result = framework.Run(incomplete, posteriors2, platform2);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->metrics.CounterValue("solver.budget_exhausted"), 0u);
}

TEST(FailureTest, PosteriorProviderErrorPropagates) {
  class BrokenProvider : public PosteriorProvider {
   public:
    Result<std::vector<double>> Posterior(const CellRef&) override {
      return Status::Internal("model store unavailable");
    }
  };
  const Table incomplete = MakeSampleMovieDataset();
  BrokenProvider posteriors;
  SimulatedCrowdPlatform platform(MakeSampleMovieGroundTruth(), {});
  BayesCrowd framework(SmallOptions());
  const auto result = framework.Run(incomplete, posteriors, platform);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(FailureTest, CompleteTableNeedsNoCrowd) {
  // A complete table has no missing cells: the c-table is fully decided
  // and the crowd phase is a no-op.
  const Table complete = MakeIndependent(50, 4, 8, 5);
  FixedMarginalsProvider posteriors({});  // Never consulted.
  SimulatedCrowdPlatform platform(complete, {});
  BayesCrowdOptions options;
  options.ctable.alpha = -1.0;
  options.budget = 100;
  options.latency = 5;
  BayesCrowd framework(options);
  const auto result = framework.Run(complete, posteriors, platform);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->tasks_posted, 0u);
  const auto truth = SkylineBnl(complete);
  ASSERT_TRUE(truth.ok());
  EXPECT_DOUBLE_EQ(
      EvaluateResultSet(result->result_objects, truth.value()).f1, 1.0);
}

}  // namespace
}  // namespace bayescrowd
