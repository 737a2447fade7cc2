// Tests for the parallel + incremental evaluation layer: the ThreadPool
// itself, determinism of Run() across thread counts, and the evaluator's
// variable-indexed memo-cache invalidation.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "adversarial_ctables.h"
#include "bayesnet/imputation.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/framework.h"
#include "core/telemetry.h"
#include "crowd/platform.h"
#include "crowd/record_replay.h"
#include "ctable/builder.h"
#include "data/generators.h"
#include "data/missing.h"
#include "obs/normalize.h"
#include "probability/evaluator.h"

namespace bayescrowd {
namespace {

CellRef V(std::size_t o, std::size_t a) { return {o, a}; }

// ------------------------------------------------------------------ //
// ThreadPool
// ------------------------------------------------------------------ //

TEST(ThreadPoolTest, SizeOneSpawnsNoWorkersAndRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<std::size_t> seen;
  pool.ParallelFor(5, [&seen](std::size_t lane, std::size_t i) {
    EXPECT_EQ(lane, 0u);
    seen.push_back(i);  // Inline execution: no synchronization needed.
  });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    static constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> visits(kCount);
    pool.ParallelFor(kCount, [&visits](std::size_t lane, std::size_t i) {
      ASSERT_LT(i, kCount);
      visits[i].fetch_add(static_cast<int>(lane) + 1);
    });
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_GE(visits[i].load(), 1) << "index " << i;
    }
    long long total = 0;
    std::atomic<long long> sum{0};
    pool.ParallelFor(kCount, [&sum](std::size_t, std::size_t i) {
      sum.fetch_add(static_cast<long long>(i));
    });
    total = static_cast<long long>(kCount) * (kCount - 1) / 2;
    EXPECT_EQ(sum.load(), total);
  }
}

TEST(ThreadPoolTest, SubmitWaitDrainsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 64);
  // The pool is reusable after a Wait().
  pool.Submit([&done] { done.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(done.load(), 65);
}

TEST(ThreadPoolTest, ThrowingParallelForBodyBecomesStatus) {
  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    std::atomic<int> ran{0};
    const Status status =
        pool.ParallelFor(64, [&ran](std::size_t, std::size_t i) {
          ran.fetch_add(1);
          if (i == 13) throw std::runtime_error("lane boundary test");
        });
    // The exception is caught at the lane boundary and surfaced as the
    // loop's Status instead of unwinding into a worker's start
    // function (which would std::terminate the whole process).
    EXPECT_FALSE(status.ok()) << "threads=" << threads;
    EXPECT_NE(status.message().find("lane boundary test"),
              std::string::npos)
        << status.message();
    EXPECT_GE(ran.load(), 1);

    // The pool survives and is reusable: a follow-up loop runs clean
    // and reports OK (the recorded error does not leak forward).
    std::atomic<int> clean{0};
    EXPECT_TRUE(pool.ParallelFor(32, [&clean](std::size_t, std::size_t) {
                      clean.fetch_add(1);
                    }).ok());
    EXPECT_EQ(clean.load(), 32);
    EXPECT_TRUE(pool.TakeError().ok());
  }
}

TEST(ThreadPoolTest, ThrowingSubmittedTaskSurfacesViaTakeError) {
  ThreadPool pool(4);
  pool.Submit([] { throw std::runtime_error("submitted failure"); });
  pool.Wait();
  const Status first = pool.TakeError();
  EXPECT_FALSE(first.ok());
  EXPECT_NE(first.message().find("submitted failure"), std::string::npos);
  // TakeError clears: the next poll is OK, and the pool still works.
  EXPECT_TRUE(pool.TakeError().ok());
  std::atomic<int> done{0};
  pool.Submit([&done] { done.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(done.load(), 1);
  EXPECT_TRUE(pool.TakeError().ok());
}

TEST(ThreadPoolTest, ParallelForErrorsArePerCallNotPoolGlobal) {
  ThreadPool pool(4);

  // A raw Submit failure parked in the pool-global slot must not bleed
  // into an unrelated ParallelFor's return value...
  pool.Submit([] { throw std::runtime_error("stale submit failure"); });
  pool.Wait();
  std::atomic<int> ran{0};
  EXPECT_TRUE(pool.ParallelFor(16, [&ran](std::size_t, std::size_t) {
                    ran.fetch_add(1);
                  }).ok());
  EXPECT_EQ(ran.load(), 16);
  // ...and it is still there for the Submit user afterwards.
  const Status stale = pool.TakeError();
  EXPECT_NE(stale.message().find("stale submit failure"),
            std::string::npos);

  // Conversely a ParallelFor failure is returned to its caller only —
  // it never lands in the pool-global slot where another session's
  // poll would pick it up (the cross-session latch this pins against).
  const Status failed =
      pool.ParallelFor(16, [](std::size_t, std::size_t i) {
        if (i == 3) throw std::runtime_error("loop-local failure");
      });
  EXPECT_FALSE(failed.ok());
  EXPECT_TRUE(pool.TakeError().ok());
}

TEST(ThreadPoolTest, ZeroResolvesToHardwareConcurrency) {
  EXPECT_GE(ThreadPool::ResolveThreads(0), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreads(3), 3u);
}

// ------------------------------------------------------------------ //
// Batch evaluation determinism
// ------------------------------------------------------------------ //

// A mid-sized incomplete dataset with enough undecided objects that
// every phase (entropy ranking, HHS counterfactual scoring, final
// inference) exercises multi-item batches.
Table DeterminismDataset() {
  Rng rng(0xD15EA5E);
  return InjectMissingUniform(MakeNbaLike(120, /*seed=*/5), 0.15, rng);
}

// One query over the determinism dataset: strategy, budget shape and
// pruning threshold.
struct DeterminismQuery {
  StrategyKind kind = StrategyKind::kHhs;
  std::size_t budget = 24;
  std::size_t latency = 4;
  double alpha = 0.01;
};

BayesCrowdOptions DeterminismOptions(std::size_t threads, bool memoize,
                                     const DeterminismQuery& query) {
  BayesCrowdOptions options;
  options.ctable.alpha = query.alpha;
  options.budget = query.budget;
  options.latency = query.latency;
  options.strategy.kind = query.kind;
  options.strategy.m = 5;
  options.threads = threads;
  options.probability.memoize = memoize;
  return options;
}

BayesCrowdResult RunWithThreads(std::size_t threads, AnswerLog* log,
                                bool memoize = true,
                                const DeterminismQuery& query = {}) {
  const Table incomplete = DeterminismDataset();
  const BayesCrowdOptions options =
      DeterminismOptions(threads, memoize, query);
  BayesCrowd framework(options);
  UniformPosteriorProvider posteriors(incomplete.schema());
  const Table truth = MakeNbaLike(120, /*seed=*/5);
  SimulatedCrowdPlatform inner(truth, {});
  RecordingPlatform recorder(inner);
  auto result = framework.Run(incomplete, posteriors, recorder);
  BAYESCROWD_CHECK_OK(result.status());
  if (log != nullptr) *log = recorder.log();
  return std::move(result).value();
}

// The whole run document minus wall clock and the pool width: every
// count in it (cost units, cache traffic, labeled metrics) must be the
// same at any thread count.
std::string NormalizedTelemetry(std::size_t threads,
                                const DeterminismQuery& query,
                                const BayesCrowdResult& result) {
  obs::NormalizeOptions normalize;
  normalize.strip_lane_usage = true;
  return obs::NormalizeTelemetry(
             RunTelemetryJson("determinism",
                              DeterminismOptions(threads, true, query),
                              result),
             normalize)
      .Dump(2);
}

TEST(ParallelDeterminismTest, OneVsEightThreadsBitIdentical) {
  // The suite's HHS query, plus UBS and HHS queries without pruning
  // whose longer runs send more conditions through the memo and the
  // counterfactual pass around the fan-out.
  const DeterminismQuery queries[] = {
      {StrategyKind::kHhs, 24, 4},
      {StrategyKind::kUbs, 24, 12, -1.0},
      {StrategyKind::kHhs, 24, 12, -1.0},
  };
  for (const DeterminismQuery& query : queries) {
    AnswerLog log1;
    const BayesCrowdResult r1 = RunWithThreads(1, &log1, true, query);
    const std::string telemetry1 = NormalizedTelemetry(1, query, r1);
    ASSERT_GT(log1.entries.size(), 0u);
    for (const std::size_t threads : {2u, 4u, 8u}) {
      AnswerLog logn;
      const BayesCrowdResult rn =
          RunWithThreads(threads, &logn, true, query);

      // Same crowdsourcing transcript: every selected task, in order.
      ASSERT_EQ(log1.entries.size(), logn.entries.size())
          << "threads " << threads;
      for (std::size_t i = 0; i < log1.entries.size(); ++i) {
        EXPECT_TRUE(log1.entries[i].expression == logn.entries[i].expression)
            << "threads " << threads << " task " << i;
        EXPECT_EQ(log1.entries[i].relation, logn.entries[i].relation);
        EXPECT_EQ(log1.entries[i].round, logn.entries[i].round);
      }

      // Same result set and bit-identical probabilities.
      EXPECT_EQ(r1.result_objects, rn.result_objects);
      ASSERT_EQ(r1.probabilities.size(), rn.probabilities.size());
      for (std::size_t i = 0; i < r1.probabilities.size(); ++i) {
        EXPECT_EQ(r1.probabilities[i], rn.probabilities[i])
            << "threads " << threads << " object " << i;
      }
      EXPECT_EQ(r1.rounds, rn.rounds);
      EXPECT_EQ(r1.tasks_posted, rn.tasks_posted);

      // Same normalized telemetry, byte for byte.
      EXPECT_EQ(telemetry1, NormalizedTelemetry(threads, query, rn))
          << "threads " << threads;
    }
  }
}

TEST(ParallelDeterminismTest, CacheOnOffBitIdentical) {
  // Memoization must never change an exact method's numbers, only skip
  // recomputation.
  AnswerLog log_on, log_off;
  const BayesCrowdResult on = RunWithThreads(4, &log_on, /*memoize=*/true);
  const BayesCrowdResult off =
      RunWithThreads(4, &log_off, /*memoize=*/false);
  EXPECT_GT(on.cache_hits, 0u);
  EXPECT_EQ(off.cache_hits, 0u);
  EXPECT_EQ(log_on.entries.size(), log_off.entries.size());
  EXPECT_EQ(on.result_objects, off.result_objects);
  ASSERT_EQ(on.probabilities.size(), off.probabilities.size());
  for (std::size_t i = 0; i < on.probabilities.size(); ++i) {
    EXPECT_EQ(on.probabilities[i], off.probabilities[i]) << "object " << i;
  }
}

TEST(ParallelDeterminismTest, RoundLogsSplitPhasesAndCountCacheTraffic) {
  const BayesCrowdResult result = RunWithThreads(2, nullptr);
  ASSERT_GT(result.round_logs.size(), 0u);
  double select = 0.0, update = 0.0;
  for (const RoundLog& log : result.round_logs) {
    EXPECT_GE(log.select_seconds, 0.0);
    EXPECT_GE(log.update_seconds, 0.0);
    EXPECT_DOUBLE_EQ(log.seconds, log.select_seconds + log.update_seconds);
    EXPECT_GE(log.CacheHitRate(), 0.0);
    EXPECT_LE(log.CacheHitRate(), 1.0);
    select += log.select_seconds;
    update += log.update_seconds;
  }
  // The terminal partial round (the selection pass that decides to
  // stop) is charged to the run total at the loop break sites but never
  // gets a round log, so the total dominates the per-round sum.
  EXPECT_GE(result.select_seconds, select);
  EXPECT_DOUBLE_EQ(result.update_seconds, update);
  std::uint64_t round_hits = 0, round_misses = 0;
  for (const RoundLog& log : result.round_logs) {
    round_hits += log.cache_hits;
    round_misses += log.cache_misses;
  }
  // Run totals also cover the final inference pass, so they dominate
  // the per-round sums.
  EXPECT_GE(result.cache_hits, round_hits);
  EXPECT_GE(result.cache_misses, round_misses);
  EXPECT_GT(result.cache_misses, 0u);
}

// ------------------------------------------------------------------ //
// Memo-cache invalidation
// ------------------------------------------------------------------ //

// Two-level distributions keep the arithmetic easy to follow.
ProbabilityEvaluator TwoLevelEvaluator() {
  ProbabilityEvaluator evaluator;
  for (std::size_t object : {0u, 1u, 2u}) {
    BAYESCROWD_CHECK_OK(evaluator.SetDistribution(
        V(object, 0), std::vector<double>{0.5, 0.5}));
  }
  return evaluator;
}

Condition SingleVarCondition(const CellRef& var) {
  return Condition::Cnf(
      {{Expression::VarConst(var, CmpOp::kGreater, 0)}});
}

TEST(EvaluatorCacheTest, AnsweringAVariableEvictsExactlyItsConditions) {
  ProbabilityEvaluator evaluator = TwoLevelEvaluator();
  // c01 mentions vars 0 and 1; c2 mentions var 2 only.
  const Condition c01 =
      Condition::Cnf({{Expression::VarVar(V(0, 0), CmpOp::kGreater,
                                          V(1, 0))}});
  const Condition c2 = SingleVarCondition(V(2, 0));

  ASSERT_TRUE(evaluator.Probability(c01).ok());
  ASSERT_TRUE(evaluator.Probability(c2).ok());
  EXPECT_TRUE(evaluator.IsCached(c01));
  EXPECT_TRUE(evaluator.IsCached(c2));
  EXPECT_EQ(evaluator.CacheSize(), 2u);

  // Fold a crowd answer about Var(1,0): its distribution collapses.
  BAYESCROWD_CHECK_OK(
      evaluator.SetDistribution(V(1, 0), std::vector<double>{1.0, 0.0}));

  EXPECT_FALSE(evaluator.IsCached(c01));  // Mentions the answered var.
  EXPECT_TRUE(evaluator.IsCached(c2));    // Untouched: still cached.
  EXPECT_EQ(evaluator.cache_stats().evictions, 1u);

  // Re-evaluation reflects the new distribution: Var(0,0) > Var(1,0)
  // with Var(1,0) pinned to level 0 is P(Var(0,0) = 1) = 0.5.
  const auto p = evaluator.Probability(c01);
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(p.value(), 0.5);
}

TEST(EvaluatorCacheTest, HitsAndMissesAreCounted) {
  ProbabilityEvaluator evaluator = TwoLevelEvaluator();
  const Condition c = SingleVarCondition(V(0, 0));
  ASSERT_TRUE(evaluator.Probability(c).ok());
  ASSERT_TRUE(evaluator.Probability(c).ok());
  ASSERT_TRUE(evaluator.Probability(c).ok());
  EXPECT_EQ(evaluator.cache_stats().misses, 1u);
  EXPECT_EQ(evaluator.cache_stats().hits, 2u);
}

TEST(EvaluatorCacheTest, BatchServesHitsWithoutRecomputing) {
  ProbabilityEvaluator evaluator = TwoLevelEvaluator();
  const Condition a = SingleVarCondition(V(0, 0));
  const Condition b = SingleVarCondition(V(1, 0));
  const std::vector<const Condition*> batch{&a, &b, &a};
  const auto first = evaluator.EvaluateBatchIntervals(batch);
  ASSERT_TRUE(first.ok());
  // Duplicate within the batch misses twice (parallel lanes do not
  // share in-flight work) but both land on one cache entry.
  EXPECT_EQ(evaluator.CacheSize(), 2u);
  const auto second = evaluator.EvaluateBatchIntervals(batch);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value(), second.value());
  EXPECT_EQ(evaluator.cache_stats().hits, 3u);
}

TEST(EvaluatorCacheTest, MutableDistributionsHandleDropsWholeCache) {
  ProbabilityEvaluator evaluator = TwoLevelEvaluator();
  const Condition c = SingleVarCondition(V(0, 0));
  ASSERT_TRUE(evaluator.Probability(c).ok());
  EXPECT_EQ(evaluator.CacheSize(), 1u);
  // Bypassing SetDistribution cannot track which vars changed, so the
  // accessor conservatively clears everything.
  evaluator.distributions();
  EXPECT_EQ(evaluator.CacheSize(), 0u);
  EXPECT_FALSE(evaluator.IsCached(c));
}

TEST(EvaluatorCacheTest, SampledMethodsBypassTheCache) {
  ProbabilityOptions options;
  options.method = ProbabilityMethod::kSampled;
  options.sampling.num_samples = 500;
  ProbabilityEvaluator evaluator(options);
  BAYESCROWD_CHECK_OK(
      evaluator.SetDistribution(V(0, 0), std::vector<double>{0.5, 0.5}));
  const Condition c = SingleVarCondition(V(0, 0));
  ASSERT_TRUE(evaluator.Probability(c).ok());
  EXPECT_EQ(evaluator.CacheSize(), 0u);
  EXPECT_EQ(evaluator.cache_stats().hits, 0u);
  EXPECT_EQ(evaluator.cache_stats().misses, 0u);
}

// ------------------------------------------------------------------ //
// Governed batch evaluation: budget tiers must not alias in the cache
// ------------------------------------------------------------------ //

TEST(GovernedBatchTest, LowBudgetEntriesNeverServeHigherBudgetBatches) {
  const AdversarialInstance inst = MakeDeepChainInstance(7, 6);
  ThreadPool pool(4);
  ProbabilityOptions options;
  options.governor.max_nodes = 8;
  options.governor.ladder = LadderMode::kInterval;
  ProbabilityEvaluator evaluator(options);
  evaluator.distributions() = inst.dists;
  evaluator.set_thread_pool(&pool);

  const std::vector<const Condition*> batch{&inst.condition,
                                            &inst.condition};
  const auto degraded = evaluator.EvaluateBatchIntervals(batch);
  ASSERT_TRUE(degraded.ok());
  ASSERT_EQ(degraded->size(), 2u);
  ASSERT_FALSE((*degraded)[0].exact());
  EXPECT_TRUE(evaluator.IsCached(inst.condition));

  // Disable the governor on the same evaluator: the degraded entry's
  // budget tag no longer matches, so the batch recomputes exactly
  // instead of serving the low-budget interval.
  evaluator.options().governor = GovernorOptions{};
  const auto exact = evaluator.EvaluateBatchIntervals(batch);
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE((*exact)[0].exact());
  EXPECT_NEAR((*exact)[0].lo, inst.exact_probability, 1e-9);

  // Both tiers stay reproducible: re-enabling the low budget returns
  // the original degraded interval bit-for-bit, not the exact entry.
  evaluator.options().governor.max_nodes = 8;
  evaluator.options().governor.ladder = LadderMode::kInterval;
  const auto again = evaluator.EvaluateBatchIntervals(batch);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)[0].lo, (*degraded)[0].lo);
  EXPECT_EQ((*again)[0].hi, (*degraded)[0].hi);
  EXPECT_EQ((*again)[0].quality, (*degraded)[0].quality);
}

TEST(GovernedBatchTest, BatchIntervalsBitIdenticalAcrossPoolSizes) {
  const AdversarialInstance chain = MakeDeepChainInstance(7, 6);
  const AdversarialInstance wide = MakeWideChainConjunctInstance(6, 6);
  auto run = [&](std::size_t threads) {
    ThreadPool pool(threads);
    ProbabilityOptions options;
    options.governor.max_nodes = 8;
    options.governor.ladder = LadderMode::kFull;  // Sampling tier too.
    ProbabilityEvaluator evaluator(options);
    evaluator.distributions() = chain.dists;
    // Both instances address {object i, attribute 0} from zero, so one
    // merged map covers the union of their variables.
    for (std::size_t i = 0; i <= 7; ++i) {
      BAYESCROWD_CHECK_OK(evaluator.SetDistribution(
          CellRef{i, 0}, std::vector<double>(6, 1.0 / 6.0)));
    }
    evaluator.set_thread_pool(&pool);
    const std::vector<const Condition*> batch{
        &chain.condition, &wide.condition, &chain.condition};
    auto r = evaluator.EvaluateBatchIntervals(batch);
    BAYESCROWD_CHECK_OK(r.status());
    return *r;
  };
  const auto one = run(1);
  const auto eight = run(8);
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].lo, eight[i].lo) << i;
    EXPECT_EQ(one[i].hi, eight[i].hi) << i;
    EXPECT_EQ(one[i].quality, eight[i].quality) << i;
  }
}

}  // namespace
}  // namespace bayescrowd
