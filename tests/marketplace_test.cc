// Tests for the adversarial crowd marketplace: seeded determinism
// across thread counts, checkpoint ('M' chunk) round-trips, quarantine
// targeting under a spam storm, the degradation ladder, and adaptive
// vote budgeting through the framework.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bayesnet/imputation.h"
#include "common/binio.h"
#include "common/random.h"
#include "core/framework.h"
#include "crowd/marketplace.h"
#include "crowd/record_replay.h"
#include "data/generators.h"
#include "data/missing.h"

namespace bayescrowd {
namespace {

MarketplaceOptions StormOptions() {
  MarketplaceOptions options;
  options.pool_size = 20;
  options.spam_rate = 0.3;
  options.max_votes = 5;
  options.seed = 99;
  return options;
}

// Synthetic comparison batch over attribute 0 of consecutive objects —
// enough volume per round that the joint inference gets a signal.
std::vector<Task> ComparisonBatch(std::size_t objects) {
  std::vector<Task> batch;
  for (std::size_t i = 0; i + 1 < objects; ++i) {
    Task task;
    task.expression.lhs = {i, 0};
    task.expression.rhs_is_var = true;
    task.expression.rhs_var = {i + 1, 0};
    batch.push_back(task);
  }
  return batch;
}

TEST(MarketplaceTest, SeededRunsAreBitIdentical) {
  const Table truth = MakeCorrelated(40, 4, 8, 7);
  MarketplaceCrowdPlatform a(truth, StormOptions());
  MarketplaceCrowdPlatform b(truth, StormOptions());
  const auto batch = ComparisonBatch(20);
  for (int round = 0; round < 6; ++round) {
    const auto answers_a = a.PostBatch(batch);
    const auto answers_b = b.PostBatch(batch);
    ASSERT_TRUE(answers_a.ok());
    ASSERT_TRUE(answers_b.ok());
    ASSERT_EQ(answers_a->size(), answers_b->size());
    for (std::size_t t = 0; t < answers_a->size(); ++t) {
      EXPECT_EQ(answers_a->at(t).answered, answers_b->at(t).answered);
      EXPECT_EQ(answers_a->at(t).relation, answers_b->at(t).relation);
      ASSERT_EQ(answers_a->at(t).votes.size(),
                answers_b->at(t).votes.size());
      for (std::size_t v = 0; v < answers_a->at(t).votes.size(); ++v) {
        EXPECT_EQ(answers_a->at(t).votes[v].worker,
                  answers_b->at(t).votes[v].worker);
        EXPECT_EQ(answers_a->at(t).votes[v].answer,
                  answers_b->at(t).votes[v].answer);
        EXPECT_DOUBLE_EQ(answers_a->at(t).votes[v].work_seconds,
                         answers_b->at(t).votes[v].work_seconds);
      }
    }
  }
  std::string state_a;
  std::string state_b;
  a.SaveState(&state_a);
  b.SaveState(&state_b);
  EXPECT_EQ(state_a, state_b);
}

TEST(MarketplaceTest, StateChunkRoundTripResumesIdentically) {
  const Table truth = MakeCorrelated(40, 4, 8, 7);
  MarketplaceCrowdPlatform original(truth, StormOptions());
  const auto batch = ComparisonBatch(20);
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(original.PostBatch(batch).ok());
  }

  std::string state;
  original.SaveState(&state);

  // A fresh platform restored from the chunk must carry the learned
  // reputations (same quarantine set, same stats) and continue on the
  // identical random stream.
  MarketplaceCrowdPlatform restored(truth, StormOptions());
  ASSERT_EQ(state.front(), 'M');  // The chunk tag LoadState re-reads.
  BinReader reader(state);
  ASSERT_TRUE(restored.LoadState(&reader).ok());

  EXPECT_EQ(restored.quarantined_workers(),
            original.quarantined_workers());
  EXPECT_EQ(restored.active_workers(), original.active_workers());
  EXPECT_EQ(restored.stats().votes_cast, original.stats().votes_cast);
  EXPECT_EQ(restored.stats().gold_tasks, original.stats().gold_tasks);
  EXPECT_EQ(restored.total_rounds(), original.total_rounds());

  std::string resaved;
  restored.SaveState(&resaved);
  EXPECT_EQ(resaved, state);

  const auto next_original = original.PostBatch(batch);
  const auto next_restored = restored.PostBatch(batch);
  ASSERT_TRUE(next_original.ok());
  ASSERT_TRUE(next_restored.ok());
  for (std::size_t t = 0; t < next_original->size(); ++t) {
    EXPECT_EQ(next_original->at(t).relation,
              next_restored->at(t).relation);
    ASSERT_EQ(next_original->at(t).votes.size(),
              next_restored->at(t).votes.size());
    for (std::size_t v = 0; v < next_original->at(t).votes.size(); ++v) {
      EXPECT_EQ(next_original->at(t).votes[v].worker,
                next_restored->at(t).votes[v].worker);
    }
  }

  // Truncated chunks fail cleanly.
  MarketplaceCrowdPlatform corrupt(truth, StormOptions());
  BinReader bad(std::string_view(state).substr(0, state.size() / 3));
  EXPECT_FALSE(corrupt.LoadState(&bad).ok());
}

TEST(MarketplaceTest, QuarantineTargetsAdversariesNotHonestWorkers) {
  const Table truth = MakeCorrelated(40, 4, 8, 7);
  MarketplaceCrowdPlatform market(truth, StormOptions());
  const auto batch = ComparisonBatch(20);
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(market.PostBatch(batch).ok());
  }

  // The storm must be detected...
  EXPECT_GT(market.quarantined_workers(), 0u);
  EXPECT_GT(market.stats().gold_tasks, 0u);

  // ...and no honest worker may be collateral damage: the gold anchor
  // plus work-time gates keep the flags on spammers/colluders (sloppy
  // workers may legitimately trip the accuracy floor).
  const auto& quality = market.quality();
  std::size_t flagged_adversaries = 0;
  for (std::size_t w = 0; w < quality.num_workers(); ++w) {
    if (!quality.Quarantined(w)) continue;
    const WorkerProfile profile =
        market.worker_profile(static_cast<std::uint32_t>(w));
    EXPECT_NE(profile, WorkerProfile::kHonest) << "worker " << w;
    if (profile == WorkerProfile::kSpammer ||
        profile == WorkerProfile::kColluder) {
      flagged_adversaries += 1;
    }
  }
  EXPECT_GT(flagged_adversaries, 0u);

  // Quarantined workers are never assigned again. Snapshot the set
  // first: a worker can be newly flagged by the very round they voted
  // in, which is allowed — flagged *before* the round is not.
  std::vector<bool> flagged(quality.num_workers());
  for (std::size_t w = 0; w < flagged.size(); ++w) {
    flagged[w] = quality.Quarantined(w);
  }
  const auto answers = market.PostBatch(batch);
  ASSERT_TRUE(answers.ok());
  for (const TaskAnswer& answer : *answers) {
    for (const VoteRecord& vote : answer.votes) {
      ASSERT_LT(vote.worker, flagged.size());
      EXPECT_FALSE(flagged[vote.worker])
          << "vote from quarantined worker " << vote.worker;
    }
  }
}

TEST(MarketplaceTest, BaselineArmNeverQuarantinesOrAbstains) {
  const Table truth = MakeCorrelated(40, 4, 8, 7);
  MarketplaceOptions options = StormOptions();
  options.defend = false;
  options.max_votes = options.base_votes;  // Flat 3-vote majority.
  MarketplaceCrowdPlatform market(truth, options);
  const auto batch = ComparisonBatch(20);
  for (int round = 0; round < 6; ++round) {
    const auto answers = market.PostBatch(batch);
    ASSERT_TRUE(answers.ok());
    for (const TaskAnswer& answer : *answers) {
      EXPECT_TRUE(answer.answered);
      EXPECT_EQ(answer.votes.size(),
                static_cast<std::size_t>(options.base_votes));
    }
  }
  EXPECT_EQ(market.quarantined_workers(), 0u);
  EXPECT_EQ(market.stats().abstained_tasks, 0u);
  EXPECT_EQ(market.stats().extra_votes, 0u);
  EXPECT_EQ(market.stats().gold_tasks, 0u);  // Audits need the defense.
}

TEST(MarketplaceTest, AdaptiveAllocationSpendsOnlyWhenUnconfident) {
  const Table truth = MakeCorrelated(40, 4, 8, 7);
  MarketplaceOptions options = StormOptions();
  options.spam_rate = 0.0;  // A clean crowd...
  MarketplaceCrowdPlatform market(truth, options);
  const auto batch = ComparisonBatch(20);
  for (int round = 0; round < 6; ++round) {
    ASSERT_TRUE(market.PostBatch(batch).ok());
  }
  // ...settles most tasks at base fan-out: extra votes stay rare
  // rather than maxing out on every task.
  const auto& stats = market.stats();
  const std::uint64_t max_possible =
      stats.votes_cast == 0
          ? 0
          : market.total_tasks() *
                static_cast<std::uint64_t>(options.max_votes -
                                           options.base_votes);
  EXPECT_LT(stats.extra_votes, max_possible / 2);
}

TEST(MarketplaceTest, RejectsIncompleteGroundTruth) {
  Rng rng(3);
  const Table incomplete =
      InjectMissingUniform(MakeCorrelated(20, 3, 6, 7), 0.3, rng);
  MarketplaceCrowdPlatform market(incomplete, StormOptions());
  const auto answers = market.PostBatch(ComparisonBatch(10));
  EXPECT_FALSE(answers.ok());
}

// ------------------------------------------------------------------ //
// Framework integration: thread invariance + adaptive budget charging
// ------------------------------------------------------------------ //

BayesCrowdResult RunStorm(std::size_t threads, AnswerLog* log) {
  const Table truth = MakeAnticorrelated(60, 4, 6, 5);
  Rng rng(5);
  const Table incomplete = InjectMissingUniform(truth, 0.3, rng);

  BayesCrowdOptions options;
  options.ctable.alpha = -1.0;  // Keep objects undecided into querying.
  options.budget = 300;
  options.latency = 3;
  options.threads = threads;
  options.adaptive.enabled = true;
  options.adaptive.base_votes = 3;
  options.adaptive.max_votes = 5;

  MarketplaceOptions market_options = StormOptions();
  MarketplaceCrowdPlatform market(truth, market_options);
  RecordingPlatform recorder(market);

  BayesCrowd framework(options);
  UniformPosteriorProvider posteriors(incomplete.schema());
  auto result = framework.Run(incomplete, posteriors, recorder);
  BAYESCROWD_CHECK_OK(result.status());
  if (log != nullptr) *log = recorder.log();
  return std::move(result).value();
}

TEST(MarketplaceFrameworkTest, OneVsEightThreadsBitIdentical) {
  AnswerLog log1;
  AnswerLog log8;
  const BayesCrowdResult r1 = RunStorm(1, &log1);
  const BayesCrowdResult r8 = RunStorm(8, &log8);

  // The recorded logs — every task, aggregate, and per-vote
  // worker/answer/work time — must match exactly.
  EXPECT_EQ(log1, log8);
  EXPECT_EQ(r1.result_objects, r8.result_objects);
  EXPECT_EQ(r1.extra_votes, r8.extra_votes);
  EXPECT_EQ(r1.cost_spent, r8.cost_spent);
}

TEST(MarketplaceFrameworkTest, ExtraVotesAreChargedAgainstBudget) {
  AnswerLog log;
  const BayesCrowdResult result = RunStorm(2, &log);
  ASSERT_GT(result.extra_votes, 0u);

  // cost = answered tasks + extra_votes / 3 (the default per-vote
  // surcharge), and the charge never exceeds the budget.
  std::size_t answered = 0;
  std::size_t extra = 0;
  for (const AnswerLogEntry& entry : log.entries) {
    if (entry.kind != AnswerLogEntry::Kind::kAnswer) continue;
    answered += 1;
    if (entry.votes.size() > 3) extra += entry.votes.size() - 3;
  }
  EXPECT_EQ(extra, result.extra_votes);
  EXPECT_NEAR(result.cost_spent,
              static_cast<double>(answered) +
                  static_cast<double>(extra) / 3.0,
              1e-9);
  EXPECT_LE(result.cost_spent, 300.0 + 1e-9);
}

}  // namespace
}  // namespace bayescrowd
