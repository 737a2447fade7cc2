// Tests for the parallel evaluation layer: the ThreadPool itself,
// determinism of Run() and of the evaluator's batch path across thread
// counts.

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
// C-table build on a pool
// ------------------------------------------------------------------ //

TEST(PooledCTableTest, EveryPoolSizeBuildsTheBaselineCTable) {
  // 1,000 objects are 16 work items of the build, so every pool below
  // spreads them over all its lanes.
  Rng rng(0xC7AB1E);
  const Table table =
      InjectMissingUniform(MakeNbaLike(1000, /*seed=*/11), 0.15, rng);
  for (const double alpha : {-1.0, 0.01}) {
    const auto pool_less = BuildCTable(table, {.alpha = alpha});
    const auto sets = ComputeDominatorSetsBaseline(table, alpha);
    ASSERT_TRUE(pool_less.ok());
    ASSERT_TRUE(sets.ok());
    const auto baseline = BuildConditions(table, *sets);
    ASSERT_TRUE(baseline.ok());
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      ThreadPool pool(threads);
      const auto pooled = BuildCTable(table, {.alpha = alpha}, &pool);
      ASSERT_TRUE(pooled.ok());
      ASSERT_EQ(pooled->num_objects(), table.num_objects());
      for (std::size_t i = 0; i < table.num_objects(); ++i) {
        EXPECT_TRUE(pooled->condition(i) == pool_less->condition(i))
            << "α=" << alpha << " threads=" << threads << " object " << i;
        EXPECT_TRUE(pooled->condition(i) == baseline->condition(i))
            << "α=" << alpha << " threads=" << threads << " object " << i;
      }
    }
  }
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

BayesCrowdOptions DeterminismOptions(std::size_t threads,
                                     const DeterminismQuery& query) {
  BayesCrowdOptions options;
  options.ctable.alpha = query.alpha;
  options.budget = query.budget;
  options.latency = query.latency;
  options.strategy.kind = query.kind;
  options.strategy.m = 5;
  options.threads = threads;
  return options;
}

BayesCrowdResult RunWithThreads(std::size_t threads, AnswerLog* log,
                                const DeterminismQuery& query = {}) {
  const Table incomplete = DeterminismDataset();
  const BayesCrowdOptions options = DeterminismOptions(threads, query);
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
// count in it (cost units, labeled metrics) must be the same at any
// thread count.
std::string NormalizedTelemetry(std::size_t threads,
                                const DeterminismQuery& query,
                                const BayesCrowdResult& result) {
  obs::NormalizeOptions normalize;
  normalize.strip_lane_usage = true;
  return obs::NormalizeTelemetry(
             RunTelemetryJson("determinism",
                              DeterminismOptions(threads, query),
                              result),
             normalize)
      .Dump(2);
}

TEST(ParallelDeterminismTest, OneVsEightThreadsBitIdentical) {
  // The suite's HHS query, plus UBS and HHS queries without pruning
  // whose longer runs send more conditions through the batch solves and
  // the counterfactual pass around the fan-out.
  const DeterminismQuery queries[] = {
      {StrategyKind::kHhs, 24, 4},
      {StrategyKind::kUbs, 24, 12, -1.0},
      {StrategyKind::kHhs, 24, 12, -1.0},
  };
  for (const DeterminismQuery& query : queries) {
    AnswerLog log1;
    const BayesCrowdResult r1 = RunWithThreads(1, &log1, query);
    const std::string telemetry1 = NormalizedTelemetry(1, query, r1);
    ASSERT_GT(log1.entries.size(), 0u);
    for (const std::size_t threads : {2u, 4u, 8u}) {
      AnswerLog logn;
      const BayesCrowdResult rn = RunWithThreads(threads, &logn, query);

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

      // Same final c-table, condition by condition: every round
      // re-simplifies the undecided conditions in place on the pool.
      ASSERT_EQ(r1.final_ctable.num_objects(), rn.final_ctable.num_objects());
      for (std::size_t i = 0; i < r1.final_ctable.num_objects(); ++i) {
        EXPECT_TRUE(r1.final_ctable.condition(i) ==
                    rn.final_ctable.condition(i))
            << "threads " << threads << " object " << i;
      }

      // Same normalized telemetry, byte for byte.
      EXPECT_EQ(telemetry1, NormalizedTelemetry(threads, query, rn))
          << "threads " << threads;
    }
  }
}

TEST(ParallelDeterminismTest, RoundLogsSplitPhases) {
  const BayesCrowdResult result = RunWithThreads(2, nullptr);
  ASSERT_GT(result.round_logs.size(), 0u);
  double select = 0.0, update = 0.0;
  for (const RoundLog& log : result.round_logs) {
    EXPECT_GE(log.select_seconds, 0.0);
    EXPECT_GE(log.update_seconds, 0.0);
    EXPECT_DOUBLE_EQ(log.seconds, log.select_seconds + log.update_seconds);
    select += log.select_seconds;
    update += log.update_seconds;
  }
  // The terminal partial round (the selection pass that decides to
  // stop) is charged to the run total at the loop break sites but never
  // gets a round log, so the total dominates the per-round sum.
  EXPECT_GE(result.select_seconds, select);
  EXPECT_DOUBLE_EQ(result.update_seconds, update);
}

// ------------------------------------------------------------------ //
// The batch path across pool sizes
// ------------------------------------------------------------------ //

TEST(PooledBatchTest, EveryPoolSizeMatchesTheSequentialPass) {
  // Forty-eight random conditions over eight three-level variables.
  Rng rng(0x100C0F);
  std::vector<Condition> random;
  for (int c = 0; c < 48; ++c) {
    std::vector<Conjunct> conjuncts(1 + rng.NextBelow(3));
    for (Conjunct& conjunct : conjuncts) {
      conjunct.resize(1 + rng.NextBelow(3));
      for (Expression& e : conjunct) {
        const std::size_t lhs = rng.NextBelow(8);
        const CmpOp op = rng.NextBool(0.5) ? CmpOp::kLess : CmpOp::kGreater;
        e = rng.NextBool(0.5)
                ? Expression::VarConst(V(lhs, 0), op, rng.NextInt(0, 2))
                : Expression::VarVar(V(lhs, 0), op,
                                     V((lhs + 1 + rng.NextBelow(7)) % 8, 0));
      }
    }
    random.push_back(Condition::Cnf(std::move(conjuncts)));
  }
  const auto set_all = [](ProbabilityEvaluator& evaluator) {
    for (std::size_t object = 0; object < 8; ++object) {
      BAYESCROWD_CHECK_OK(evaluator.SetDistribution(
          V(object, 0), std::vector<double>{0.2, 0.3, 0.5}));
    }
  };

  const Condition on_var0 = Condition::Cnf(
      {{Expression::VarConst(V(0, 0), CmpOp::kGreater, 0)},
       {Expression::VarVar(V(0, 0), CmpOp::kLess, V(1, 0))}});
  const Condition on_var7 =
      Condition::Cnf({{Expression::VarConst(V(7, 0), CmpOp::kLess, 2)}});

  struct Outcome {
    std::vector<std::vector<ProbInterval>> intervals;
    std::string counters;
  };
  const Condition always = Condition::True();
  const Condition never = Condition::False();
  const auto run = [&](ThreadPool* pool) {
    ProbabilityEvaluator evaluator;
    set_all(evaluator);
    evaluator.set_thread_pool(pool);
    evaluator.SetCostContext("s", "select");

    // Two hand-written conditions, two decided ones, every random
    // condition, and one of them a second time.
    std::vector<const Condition*> batch{&on_var0, &always, &on_var7, &never};
    for (const Condition& c : random) batch.push_back(&c);
    batch.push_back(&random[3]);
    Outcome out;
    const auto evaluate = [&evaluator, &batch, &out] {
      auto intervals = evaluator.EvaluateBatchIntervals(batch);
      BAYESCROWD_CHECK_OK(intervals.status());
      out.intervals.push_back(*std::move(intervals));
    };
    evaluate();
    evaluate();
    BAYESCROWD_CHECK_OK(evaluator.SetDistribution(
        V(2, 0), std::vector<double>{0.6, 0.3, 0.1}));
    evaluator.SetCostContext("s", "update");
    evaluate();
    BAYESCROWD_CHECK_OK(evaluator.SetDistribution(
        V(0, 0), std::vector<double>{0.1, 0.1, 0.8}));
    BAYESCROWD_CHECK_OK(evaluator.SetDistribution(
        V(5, 0), std::vector<double>{0.3, 0.4, 0.3}));
    evaluate();
    out.counters = evaluator.metrics()->Snapshot().ToText();
    return out;
  };

  const Outcome reference = run(nullptr);
  EXPECT_NE(reference.counters.find("cost.adpll_nodes{"), std::string::npos);
  // Re-conditioned distributions take effect on the next batch.
  EXPECT_NE(reference.intervals[0], reference.intervals[3]);
  EXPECT_EQ(reference.intervals[0][1], ProbInterval::Exact(1.0));
  EXPECT_EQ(reference.intervals[0][3], ProbInterval::Exact(0.0));
  EXPECT_EQ(reference.intervals[0][7], reference.intervals[0].back());
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    const Outcome pooled = run(&pool);
    EXPECT_EQ(pooled.intervals, reference.intervals) << "threads " << threads;
    EXPECT_EQ(pooled.counters, reference.counters) << "threads " << threads;
  }
}

// ------------------------------------------------------------------ //
// Governed batch evaluation
// ------------------------------------------------------------------ //

TEST(GovernedBatchTest, EveryBatchSolvesUnderTheGovernorInForce) {
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

  // Disable the governor on the same evaluator: the batch solves
  // exactly instead of returning the low-budget interval.
  evaluator.options().governor = GovernorOptions{};
  const auto exact = evaluator.EvaluateBatchIntervals(batch);
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE((*exact)[0].exact());
  EXPECT_NEAR((*exact)[0].lo, inst.exact_probability, 1e-9);

  // Both tiers stay reproducible: re-enabling the low budget returns
  // the original degraded interval bit-for-bit, not the exact value.
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
