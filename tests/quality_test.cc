// Tests for worker-quality modeling: voting rules, gold-task tracking,
// consensus estimation, the pooled platform modes, MAR/MNAR missingness
// and the framework's confidence stop.

#include <gtest/gtest.h>

#include "bayesnet/imputation.h"
#include "common/binio.h"
#include "common/random.h"
#include "core/framework.h"
#include "crowd/platform.h"
#include "crowd/quality.h"
#include "data/generators.h"
#include "data/missing.h"
#include "skyline/algorithms.h"
#include "skyline/metrics.h"

namespace bayescrowd {
namespace {

// ------------------------------------------------------------------ //
// Voting rules
// ------------------------------------------------------------------ //

TEST(VotingTest, MajorityPicksMode) {
  EXPECT_EQ(MajorityVote({Ordering::kLess, Ordering::kLess,
                          Ordering::kGreater}),
            Ordering::kLess);
  EXPECT_EQ(MajorityVote({Ordering::kEqual}), Ordering::kEqual);
}

TEST(VotingTest, WeightedVoteTrustsAccurateWorker) {
  // One 0.95 worker outvotes two 0.5 workers.
  const auto result = WeightedVote(
      {Ordering::kGreater, Ordering::kLess, Ordering::kLess},
      {0.95, 0.5, 0.5});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), Ordering::kGreater);
}

TEST(VotingTest, WeightedVoteEqualWeightsIsMajority) {
  const auto result = WeightedVote(
      {Ordering::kEqual, Ordering::kEqual, Ordering::kGreater},
      {0.8, 0.8, 0.8});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), Ordering::kEqual);
}

TEST(VotingTest, WeightedVoteValidatesInput) {
  EXPECT_FALSE(WeightedVote({}, {}).ok());
  EXPECT_FALSE(WeightedVote({Ordering::kLess}, {0.8, 0.9}).ok());
}

TEST(VotingTest, MajorityTieBreakIsPinned) {
  // Contract regression: MajorityVote (which every simulated platform
  // aggregates with) breaks ties toward the lowest Ordering value
  // (kLess < kEqual < kGreater), NOT toward the last vote seen.
  EXPECT_EQ(MajorityVote({Ordering::kGreater, Ordering::kEqual}),
            Ordering::kEqual);
  EXPECT_EQ(MajorityVote({Ordering::kGreater, Ordering::kLess}),
            Ordering::kLess);
  EXPECT_EQ(MajorityVote({Ordering::kEqual, Ordering::kGreater,
                          Ordering::kLess}),
            Ordering::kLess);
  // Vote order must not matter.
  EXPECT_EQ(MajorityVote({Ordering::kLess, Ordering::kGreater}),
            MajorityVote({Ordering::kGreater, Ordering::kLess}));
}

TEST(VotingTest, NoisyVoteDrawsAccuracyCoinThenWrongAnswer) {
  // Pins the draws every simulated crowd's stream depends on:
  // NextBool(accuracy), then, only for a wrong vote, NextBelow(2) over
  // the two wrong answers in kLess < kEqual < kGreater order.
  constexpr Ordering kAll[] = {Ordering::kLess, Ordering::kEqual,
                               Ordering::kGreater};
  for (const Ordering truth : kAll) {
    Rng rng(9);
    Rng mirror(9);
    int wrong_votes = 0;
    for (int i = 0; i < 200; ++i) {
      Ordering expected = truth;
      if (!mirror.NextBool(0.6)) {
        std::vector<Ordering> wrong;
        for (const Ordering o : kAll) {
          if (o != truth) wrong.push_back(o);
        }
        expected = wrong[mirror.NextBelow(2)];
        wrong_votes += 1;
      }
      EXPECT_EQ(NoisyVote(truth, 0.6, rng), expected);
    }
    EXPECT_GT(wrong_votes, 0);
    EXPECT_EQ(rng.NextUint64(), mirror.NextUint64());  // Same position.
  }
}

TEST(VotingTest, WeightedVoteClampEdges) {
  // Accuracies outside [0.34, 0.999] clamp instead of exploding: 1.0
  // would be an infinite log-odds weight, 0.0 a negative one that
  // flips the worker into an oracle-of-wrongness. After clamping, a
  // perfect worker still outvotes any fixed number of zeros, and every
  // weight stays positive (a 0.0-accuracy solo voter still elects their
  // own answer rather than its opposite).
  const auto solo = WeightedVote({Ordering::kGreater}, {0.0});
  ASSERT_TRUE(solo.ok());
  EXPECT_EQ(solo.value(), Ordering::kGreater);

  const auto oracle = WeightedVote(
      {Ordering::kLess, Ordering::kEqual, Ordering::kEqual,
       Ordering::kEqual},
      {1.0, 0.0, 0.0, 0.0});
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(oracle.value(), Ordering::kLess);

  // Exactly at the clamp bounds: still finite, still deterministic.
  const auto bounds = WeightedVote({Ordering::kEqual, Ordering::kLess},
                                   {0.999, 0.34});
  ASSERT_TRUE(bounds.ok());
  EXPECT_EQ(bounds.value(), Ordering::kEqual);
}

// ------------------------------------------------------------------ //
// Consensus (Dawid-Skene-style) estimation
// ------------------------------------------------------------------ //

TEST(ConsensusTest, SeparatesGoodFromBadWorkers) {
  // 3 workers: two accurate (0.95), one adversarially noisy (0.4), over
  // 200 simulated tasks, with no gold task to anchor the EM.
  Rng rng(515);
  const double true_acc[3] = {0.95, 0.95, 0.4};
  JointQualityModel model;
  for (int t = 0; t < 200; ++t) {
    const auto truth = static_cast<Ordering>(rng.NextBelow(3));
    std::vector<VoteRecord> votes;
    for (std::uint32_t w = 0; w < 3; ++w) {
      Ordering answer = truth;
      if (!rng.NextBool(true_acc[w])) {
        answer = static_cast<Ordering>(
            (static_cast<int>(truth) + 1 + rng.NextBelow(2)) % 3);
      }
      votes.push_back({w, answer, 30.0});
    }
    model.AddTask(votes);
  }
  model.Refresh();
  EXPECT_EQ(model.gold_tasks(), 0u);
  EXPECT_GT(model.Accuracy(0), 0.85);
  EXPECT_GT(model.Accuracy(1), 0.85);
  EXPECT_LT(model.Accuracy(2), 0.6);
}

// ------------------------------------------------------------------ //
// Fleiss kappa (collapse detector)
// ------------------------------------------------------------------ //

TEST(FleissKappaTest, PerfectAgreementIsOne) {
  EXPECT_DOUBLE_EQ(
      FleissKappa({{Ordering::kLess, Ordering::kLess, Ordering::kLess},
                   {Ordering::kGreater, Ordering::kGreater}}),
      1.0);
}

TEST(FleissKappaTest, ChanceLevelIsNearZero) {
  // A seeded uniform-random crowd: agreement indistinguishable from
  // chance.
  Rng rng(31);
  std::vector<std::vector<Ordering>> tasks(400);
  for (auto& votes : tasks) {
    for (int v = 0; v < 5; ++v) {
      votes.push_back(static_cast<Ordering>(rng.NextBelow(3)));
    }
  }
  EXPECT_NEAR(FleissKappa(tasks), 0.0, 0.05);
}

TEST(FleissKappaTest, SystematicDisagreementIsNegative) {
  // Every task splits evenly between two camps — less agreement than
  // chance would produce.
  std::vector<std::vector<Ordering>> tasks(
      20, {Ordering::kLess, Ordering::kGreater});
  EXPECT_LT(FleissKappa(tasks), 0.0);
}

TEST(FleissKappaTest, DegenerateInputsReadAsHealthy) {
  // No multi-vote task, or a crowd unanimous in one category (chance
  // agreement total): 1.0, never NaN — the collapse detector must not
  // trip on an empty or trivial round.
  EXPECT_DOUBLE_EQ(FleissKappa({}), 1.0);
  EXPECT_DOUBLE_EQ(FleissKappa({{Ordering::kLess}}), 1.0);
  EXPECT_DOUBLE_EQ(
      FleissKappa({{Ordering::kEqual, Ordering::kEqual},
                   {Ordering::kEqual, Ordering::kEqual}}),
      1.0);
}

// ------------------------------------------------------------------ //
// JointQualityModel (marketplace defense)
// ------------------------------------------------------------------ //

// Builds a synthetic round history: `honest` workers answering kLess
// with plausible work times, one spammer (id = honest) answering
// uniformly at implausible speed.
void FeedTasks(JointQualityModel* model, std::size_t honest,
               std::size_t tasks, Rng* rng) {
  for (std::size_t t = 0; t < tasks; ++t) {
    std::vector<VoteRecord> votes;
    for (std::uint32_t w = 0; w < honest; ++w) {
      votes.push_back({w, Ordering::kLess, 20.0 + rng->NextDouble() * 10});
    }
    votes.push_back({static_cast<std::uint32_t>(honest),
                     static_cast<Ordering>(rng->NextBelow(3)),
                     0.5 + rng->NextDouble()});
    model->AddTask(votes);
  }
}

TEST(JointQualityTest, WorkTimeGateQuarantinesAndLatches) {
  Rng rng(5);
  JointQualityModel model;
  FeedTasks(&model, 4, 12, &rng);
  EXPECT_EQ(model.Refresh(), 1u);  // The click-through spammer.
  EXPECT_TRUE(model.Quarantined(4));
  EXPECT_FALSE(model.Quarantined(0));
  EXPECT_LT(model.MeanWorkSeconds(4), kMinWorkSeconds);

  // Quarantine latches: even if the worker reforms (slow, correct
  // votes from now on), the flag stays for the session.
  for (int t = 0; t < 40; ++t) {
    model.AddTask({{0, Ordering::kLess, 25.0},
                   {4, Ordering::kLess, 25.0}});
  }
  EXPECT_EQ(model.Refresh(), 0u);
  EXPECT_TRUE(model.Quarantined(4));
  EXPECT_EQ(model.quarantined_count(), 1u);
}

TEST(JointQualityTest, NewArrivalsNeverFlaggedOnFirstImpression) {
  // Fewer than kMinObservations votes: no gate may fire, however bad
  // the early signal looks.
  JointQualityModel model;
  for (std::size_t t = 0; t + 1 < kMinObservations; ++t) {
    model.AddTask({{0, Ordering::kLess, 30.0},
                   {1, Ordering::kLess, 30.0},
                   {2, Ordering::kGreater, 0.1}});
  }
  model.Refresh();
  EXPECT_FALSE(model.Quarantined(2));
}

TEST(JointQualityTest, GoldTasksAnchorAgainstColluderCapture) {
  // 4 coordinated colluders infiltrate a crowd of 4 honest-but-fallible
  // (75%) workers. The bloc's perfect mutual agreement beats the honest
  // workers' noisy mutual agreement, so unanchored EM can elect the
  // bloc's answer as consensus and invert the accuracy estimates. A
  // modest fraction of operator-audited (gold) tasks pins the
  // consensus at the truth and keeps the estimates upright.
  Rng rng(77);
  for (const bool gold : {false, true}) {
    JointQualityModel model;
    for (int t = 0; t < 60; ++t) {
      std::vector<VoteRecord> votes;
      for (std::uint32_t w = 0; w < 4; ++w) {  // Honest, 75% accurate.
        const bool hit = rng.NextBool(0.75);
        votes.push_back({w,
                         hit ? Ordering::kLess
                             : static_cast<Ordering>(1 + rng.NextBelow(2)),
                         30.0});
      }
      for (std::uint32_t w = 4; w < 8; ++w) {  // Colluders: same lie.
        votes.push_back({w, Ordering::kGreater, 30.0});
      }
      if (gold && t % 8 == 0) {
        model.AddGoldTask(votes, Ordering::kLess);
      } else {
        model.AddTask(votes);
      }
    }
    model.Refresh();
    if (gold) {
      EXPECT_GT(model.gold_tasks(), 0u);
      for (std::size_t w = 0; w < 4; ++w) {
        EXPECT_GT(model.Accuracy(w), 0.5) << "honest worker " << w;
        EXPECT_FALSE(model.Quarantined(w)) << "honest worker " << w;
      }
      for (std::size_t w = 4; w < 8; ++w) {
        EXPECT_LT(model.Accuracy(w), 0.3) << "colluder " << w;
        EXPECT_TRUE(model.Quarantined(w)) << "colluder " << w;
      }
    } else {
      // Unanchored: the bloc wins — every colluder outscores every
      // honest worker, the exact inversion the anchor exists to
      // prevent.
      double worst_colluder = 1.0;
      double best_honest = 0.0;
      for (std::size_t w = 0; w < 4; ++w) {
        best_honest = std::max(best_honest, model.Accuracy(w));
      }
      for (std::size_t w = 4; w < 8; ++w) {
        worst_colluder = std::min(worst_colluder, model.Accuracy(w));
      }
      EXPECT_GT(worst_colluder, best_honest);
      EXPECT_EQ(model.gold_tasks(), 0u);
    }
  }
}

TEST(JointQualityTest, SaveLoadRoundTrip) {
  Rng rng(13);
  JointQualityModel model;
  FeedTasks(&model, 3, 10, &rng);
  model.AddGoldTask({{0, Ordering::kEqual, 22.0},
                     {1, Ordering::kEqual, 28.0}},
                    Ordering::kEqual);
  model.Refresh();

  std::string blob;
  BinWriter writer(&blob);
  model.Save(&writer);

  JointQualityModel loaded;
  BinReader reader(blob);
  ASSERT_TRUE(loaded.Load(&reader).ok());
  ASSERT_EQ(loaded.num_workers(), model.num_workers());
  EXPECT_EQ(loaded.gold_tasks(), model.gold_tasks());
  EXPECT_EQ(loaded.tasks_accumulated(), model.tasks_accumulated());
  for (std::size_t w = 0; w < model.num_workers(); ++w) {
    EXPECT_DOUBLE_EQ(loaded.Accuracy(w), model.Accuracy(w));
    EXPECT_DOUBLE_EQ(loaded.MeanWorkSeconds(w), model.MeanWorkSeconds(w));
    EXPECT_EQ(loaded.Quarantined(w), model.Quarantined(w));
  }

  // And a re-save of the loaded model is byte-identical.
  std::string again;
  BinWriter rewriter(&again);
  loaded.Save(&rewriter);
  EXPECT_EQ(blob, again);

  // Truncated blobs fail cleanly, never crash.
  for (const std::size_t cut : {std::size_t{1}, blob.size() / 2}) {
    JointQualityModel corrupt;
    BinReader bad(std::string_view(blob).substr(0, cut));
    EXPECT_FALSE(corrupt.Load(&bad).ok());
  }
}

// ------------------------------------------------------------------ //
// MAR / MNAR injection
// ------------------------------------------------------------------ //

TEST(MissingnessTest, MarHitsExpectedRateAndSparesDriver) {
  const Table complete = MakeAdultLike(3000, 5);
  Rng rng(6);
  const Table injected = InjectMissingMar(complete, 0.15, 0, rng);
  EXPECT_NEAR(injected.MissingRate(), 0.15, 0.02);
  for (std::size_t i = 0; i < injected.num_objects(); ++i) {
    EXPECT_FALSE(injected.IsMissing(i, 0));
  }
}

TEST(MissingnessTest, MarCorrelatesWithDriver) {
  const Table complete = MakeAdultLike(5000, 7);
  Rng rng(8);
  const Table injected = InjectMissingMar(complete, 0.15, 0, rng);
  // Split rows by driver level; high-driver rows must lose more cells.
  const Level mid = complete.schema().domain_size(0) / 2;
  double low_missing = 0.0;
  double low_rows = 0.0;
  double high_missing = 0.0;
  double high_rows = 0.0;
  for (std::size_t i = 0; i < injected.num_objects(); ++i) {
    std::size_t missing = 0;
    for (std::size_t j = 1; j < injected.num_attributes(); ++j) {
      missing += injected.IsMissing(i, j) ? 1 : 0;
    }
    if (complete.At(i, 0) >= mid) {
      high_missing += static_cast<double>(missing);
      high_rows += 1.0;
    } else {
      low_missing += static_cast<double>(missing);
      low_rows += 1.0;
    }
  }
  EXPECT_GT(high_missing / high_rows, low_missing / low_rows);
}

TEST(MissingnessTest, MnarHidesHighValues) {
  const Table complete = MakeAdultLike(5000, 9);
  Rng rng(10);
  const Table injected = InjectMissingMnar(complete, 0.15, rng);
  EXPECT_NEAR(injected.MissingRate(), 0.15, 0.02);
  // The mean *observed* value must drop below the complete mean.
  double complete_sum = 0.0;
  double observed_sum = 0.0;
  double observed_count = 0.0;
  const double total = static_cast<double>(complete.num_objects() *
                                           complete.num_attributes());
  for (std::size_t i = 0; i < complete.num_objects(); ++i) {
    for (std::size_t j = 0; j < complete.num_attributes(); ++j) {
      complete_sum += complete.At(i, j);
      if (!injected.IsMissing(i, j)) {
        observed_sum += injected.At(i, j);
        observed_count += 1.0;
      }
    }
  }
  EXPECT_LT(observed_sum / observed_count, complete_sum / total);
}

// ------------------------------------------------------------------ //
// Confidence stop
// ------------------------------------------------------------------ //

TEST(ConfidenceStopTest, StopsEarlyWhenProbabilitiesAreExtreme) {
  const Table complete = MakeNbaLike(300, 404, 8);
  Rng rng(11);
  const Table incomplete = InjectMissingUniform(complete, 0.08, rng);

  BayesCrowdOptions options;
  options.ctable.alpha = 0.1;
  options.budget = 500;  // Far more than needed.
  options.latency = 50;
  options.confidence_stop_entropy = 0.35;
  BayesCrowd framework(options);
  UniformPosteriorProvider posteriors(incomplete.schema());
  SimulatedCrowdPlatform platform(complete, {});
  const auto result = framework.Run(incomplete, posteriors, platform);
  ASSERT_TRUE(result.ok());

  // With the stop enabled, either the run ends confident with unspent
  // budget, or every expression was exhausted before confidence hit.
  if (result->stopped_confident) {
    EXPECT_LT(result->tasks_posted, options.budget);
  }

  // And accuracy should not collapse versus the full-budget run.
  BayesCrowdOptions full = options;
  full.confidence_stop_entropy = 0.0;
  BayesCrowd full_framework(full);
  UniformPosteriorProvider posteriors2(incomplete.schema());
  SimulatedCrowdPlatform platform2(complete, {});
  const auto full_result =
      full_framework.Run(incomplete, posteriors2, platform2);
  ASSERT_TRUE(full_result.ok());
  const auto truth = SkylineBnl(complete);
  ASSERT_TRUE(truth.ok());
  const double f1_stop =
      EvaluateResultSet(result->result_objects, truth.value()).f1;
  const double f1_full =
      EvaluateResultSet(full_result->result_objects, truth.value()).f1;
  EXPECT_GT(f1_stop, f1_full - 0.1);
  EXPECT_LE(result->tasks_posted, full_result->tasks_posted);
}

}  // namespace
}  // namespace bayescrowd
