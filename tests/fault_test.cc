// Property tests for the fault-tolerance layer: FaultInjectingPlatform's
// deterministic schedule, the framework's retry/backoff/refund
// semantics, degradation under a dead platform, and the golden replay
// guarantee (a recorded faulted run replays through the identical
// recovery path, telemetry and all).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bayesnet/imputation.h"
#include "common/random.h"
#include "core/framework.h"
#include "core/telemetry.h"
#include "crowd/fault_injection.h"
#include "crowd/platform.h"
#include "crowd/record_replay.h"
#include "data/generators.h"
#include "data/missing.h"
#include "obs/json.h"
#include "obs/normalize.h"

namespace bayescrowd {
namespace {

// Same dataset family as parallel_test.cc: mid-sized, enough undecided
// objects for multi-round, multi-task batches.
Table FaultDataset() {
  Rng rng(0xD15EA5E);
  return InjectMissingUniform(MakeNbaLike(120, /*seed=*/5), 0.15, rng);
}

BayesCrowdOptions FaultRunOptions(std::size_t threads) {
  BayesCrowdOptions options;
  options.ctable.alpha = 0.01;
  options.budget = 24;
  options.latency = 4;
  options.strategy.kind = StrategyKind::kHhs;
  options.strategy.m = 5;
  options.threads = threads;
  return options;
}

struct FaultRun {
  BayesCrowdResult result;
  FaultStats stats;
  AnswerLog log;
};

// Runs the pipeline through framework -> recorder -> faulter -> sim.
// The recorder sits outermost so the transcript includes abstains and
// whole-batch failures — the full recovery path.
FaultRun RunFaulted(std::size_t threads, const FaultOptions& faults) {
  const Table incomplete = FaultDataset();
  const BayesCrowdOptions options = FaultRunOptions(threads);
  BayesCrowd framework(options);
  UniformPosteriorProvider posteriors(incomplete.schema());
  const Table truth = MakeNbaLike(120, /*seed=*/5);
  SimulatedCrowdPlatform sim(truth, {});
  FaultInjectingPlatform faulter(sim, faults);
  RecordingPlatform recorder(faulter);
  auto result = framework.Run(incomplete, posteriors, recorder);
  BAYESCROWD_CHECK_OK(result.status());
  return {std::move(result).value(), faulter.stats(), recorder.log()};
}

void ExpectBitIdentical(const BayesCrowdResult& a,
                        const BayesCrowdResult& b) {
  EXPECT_EQ(a.result_objects, b.result_objects);
  ASSERT_EQ(a.probabilities.size(), b.probabilities.size());
  for (std::size_t i = 0; i < a.probabilities.size(); ++i) {
    EXPECT_EQ(a.probabilities[i], b.probabilities[i]) << "object " << i;
  }
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.rounds_abandoned, b.rounds_abandoned);
  EXPECT_EQ(a.tasks_posted, b.tasks_posted);
  EXPECT_EQ(a.tasks_unanswered, b.tasks_unanswered);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.transient_failures, b.transient_failures);
  EXPECT_EQ(a.cost_spent, b.cost_spent);
  EXPECT_EQ(a.cost_refunded, b.cost_refunded);
  EXPECT_EQ(a.backoff_seconds, b.backoff_seconds);
  EXPECT_EQ(a.simulated_seconds, b.simulated_seconds);
  EXPECT_EQ(a.degraded, b.degraded);
}

// ------------------------------------------------------------------ //
// Pass-through and schedule determinism
// ------------------------------------------------------------------ //

TEST(FaultInjectionTest, ZeroRateIsTransparentPassThrough) {
  // Baseline: no decorator at all.
  const Table incomplete = FaultDataset();
  const BayesCrowdOptions options = FaultRunOptions(2);
  UniformPosteriorProvider posteriors(incomplete.schema());
  const Table truth = MakeNbaLike(120, /*seed=*/5);
  SimulatedCrowdPlatform sim(truth, {});
  RecordingPlatform recorder(sim);
  BayesCrowd framework(options);
  auto baseline = framework.Run(incomplete, posteriors, recorder);
  BAYESCROWD_CHECK_OK(baseline.status());

  const FaultRun faulted = RunFaulted(2, FaultOptions::Profile(0.0, 99));
  ExpectBitIdentical(baseline.value(), faulted.result);
  EXPECT_EQ(SerializeAnswerLog(recorder.log()),
            SerializeAnswerLog(faulted.log));

  // Nothing injected, everything delivered.
  EXPECT_EQ(faulted.stats.transient_failures, 0u);
  EXPECT_EQ(faulted.stats.timeouts, 0u);
  EXPECT_EQ(faulted.stats.abstained_tasks, 0u);
  EXPECT_EQ(faulted.stats.partial_batches, 0u);
  EXPECT_EQ(faulted.stats.batches_attempted,
            faulted.stats.batches_delivered);
  EXPECT_FALSE(faulted.result.degraded);
  EXPECT_EQ(faulted.result.tasks_unanswered, 0u);
  EXPECT_EQ(faulted.result.cost_refunded, 0.0);
}

TEST(FaultInjectionTest, SameSeedReproducesScheduleAndResult) {
  const FaultOptions faults = FaultOptions::Profile(0.3, 17);
  const FaultRun a = RunFaulted(2, faults);
  const FaultRun b = RunFaulted(2, faults);
  ExpectBitIdentical(a.result, b.result);
  EXPECT_EQ(a.stats.transient_failures, b.stats.transient_failures);
  EXPECT_EQ(a.stats.timeouts, b.stats.timeouts);
  EXPECT_EQ(a.stats.abstained_tasks, b.stats.abstained_tasks);
  EXPECT_EQ(a.stats.partial_batches, b.stats.partial_batches);
  EXPECT_EQ(a.stats.dropped_tail_tasks, b.stats.dropped_tail_tasks);
  EXPECT_EQ(a.stats.batches_attempted, b.stats.batches_attempted);
  EXPECT_EQ(SerializeAnswerLog(a.log), SerializeAnswerLog(b.log));
  // The profile must actually bite, or the test proves nothing.
  EXPECT_GT(a.stats.transient_failures + a.stats.abstained_tasks +
                a.stats.partial_batches,
            0u);
}

TEST(FaultInjectionTest, FaultedRunBitIdenticalAcrossThreadCounts) {
  // Retry, refund and degradation logic all live in the single-threaded
  // round loop; the injector's schedule depends only on seed and batch
  // sizes. Thread count must therefore not leak into a faulted run.
  const FaultOptions faults = FaultOptions::Profile(0.3, 17);
  const FaultRun one = RunFaulted(1, faults);
  const FaultRun eight = RunFaulted(8, faults);
  ExpectBitIdentical(one.result, eight.result);
  EXPECT_EQ(SerializeAnswerLog(one.log), SerializeAnswerLog(eight.log));
  EXPECT_EQ(one.stats.transient_failures, eight.stats.transient_failures);
  EXPECT_EQ(one.stats.abstained_tasks, eight.stats.abstained_tasks);
  EXPECT_EQ(one.stats.dropped_tail_tasks, eight.stats.dropped_tail_tasks);
}

// ------------------------------------------------------------------ //
// Budget accounting
// ------------------------------------------------------------------ //

TEST(FaultInjectionTest, BudgetOnlyPaysForAnswers) {
  const FaultRun run = RunFaulted(2, FaultOptions::Profile(0.3, 17));
  const BayesCrowdResult& r = run.result;
  // Uniform (cost-1) model: spent + refunded partitions the posted
  // tasks, and only answers are charged against the budget.
  EXPECT_EQ(r.cost_spent,
            static_cast<double>(r.tasks_posted - r.tasks_unanswered));
  EXPECT_EQ(r.cost_refunded, static_cast<double>(r.tasks_unanswered));
  EXPECT_LE(r.cost_spent, 24.0);
  // Round logs are consistent with the totals.
  std::size_t unanswered = 0, abandoned = 0;
  double refunded = 0.0;
  for (const RoundLog& log : r.round_logs) {
    EXPECT_EQ(log.tasks, log.answered + log.unanswered);
    unanswered += log.unanswered;
    refunded += log.cost_refunded;
    if (log.abandoned) {
      ++abandoned;
      EXPECT_EQ(log.tasks, 0u);
    }
  }
  EXPECT_EQ(unanswered, r.tasks_unanswered);
  EXPECT_EQ(refunded, r.cost_refunded);
  EXPECT_EQ(abandoned, r.rounds_abandoned);
}

// ------------------------------------------------------------------ //
// Degradation and deadlines
// ------------------------------------------------------------------ //

// A marketplace that is simply gone.
class AlwaysDownPlatform : public CrowdPlatform {
 public:
  Result<std::vector<TaskAnswer>> PostBatch(
      const std::vector<Task>& tasks) override {
    (void)tasks;
    return Status::Unavailable("platform down");
  }
  std::size_t total_tasks() const override { return 0; }
  std::size_t total_rounds() const override { return 0; }
};

BayesCrowdResult RunAgainstDeadPlatform(const RetryPolicy& retry) {
  const Table incomplete = FaultDataset();
  BayesCrowdOptions options = FaultRunOptions(2);
  options.retry = retry;
  BayesCrowd framework(options);
  UniformPosteriorProvider posteriors(incomplete.schema());
  AlwaysDownPlatform dead;
  auto result = framework.Run(incomplete, posteriors, dead);
  BAYESCROWD_CHECK_OK(result.status());
  return std::move(result).value();
}

TEST(FaultRecoveryTest, DeadPlatformTerminatesDegraded) {
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.max_barren_rounds = 3;
  const BayesCrowdResult r = RunAgainstDeadPlatform(retry);

  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.rounds_abandoned, 3u);
  EXPECT_EQ(r.rounds, 3u);
  // Every round burns all attempts: 3 failures and 2 retries each.
  EXPECT_EQ(r.transient_failures, 9u);
  EXPECT_EQ(r.retries, 6u);
  EXPECT_EQ(r.tasks_posted, 0u);
  EXPECT_EQ(r.cost_spent, 0.0);
  // Backoff 1 + 2 simulated seconds per round, attempts 3 s per round.
  EXPECT_DOUBLE_EQ(r.backoff_seconds, 9.0);
  EXPECT_DOUBLE_EQ(r.simulated_seconds, 18.0);
  // The degraded result is still a well-defined probabilistic skyline.
  EXPECT_EQ(r.probabilities.size(), 120u);
  EXPECT_GT(r.result_objects.size(), 0u);
}

TEST(FaultRecoveryTest, DeadlineCapsAttemptsPerRound) {
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.attempt_seconds = 1.0;
  retry.backoff_initial_seconds = 1.0;
  retry.round_deadline_seconds = 1.5;  // Room for exactly one attempt.
  retry.max_barren_rounds = 2;
  const BayesCrowdResult r = RunAgainstDeadPlatform(retry);

  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.rounds_abandoned, 2u);
  EXPECT_EQ(r.transient_failures, 2u);  // One attempt per round.
  EXPECT_EQ(r.retries, 0u);             // Backoff would blow the deadline.
  EXPECT_DOUBLE_EQ(r.backoff_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.simulated_seconds, 2.0);
  for (const RoundLog& log : r.round_logs) {
    EXPECT_EQ(log.attempts, 1u);
    EXPECT_TRUE(log.abandoned);
  }
}

// ------------------------------------------------------------------ //
// Golden replay
// ------------------------------------------------------------------ //

// Telemetry normalization lives in obs/normalize.h; the default
// options zero the wall-clock durations (keys ending in "seconds"
// without "sim" in the name) and drop the per-lane pool tallies.
// Simulated clocks are deterministic and survive the diff untouched.

TEST(FaultRecoveryTest, GoldenReplayReproducesRecoveryPathAndTelemetry) {
  // Record a faulted run.
  const Table incomplete = FaultDataset();
  const BayesCrowdOptions options = FaultRunOptions(1);
  UniformPosteriorProvider posteriors(incomplete.schema());
  const Table truth = MakeNbaLike(120, /*seed=*/5);

  SimulatedCrowdPlatform sim(truth, {});
  FaultInjectingPlatform faulter(sim, FaultOptions::Profile(0.3, 17));
  RecordingPlatform recorder(faulter);
  BayesCrowd framework(options);
  auto recorded = framework.Run(incomplete, posteriors, recorder);
  BAYESCROWD_CHECK_OK(recorded.status());
  // The transcript must contain actual recovery events to be golden.
  ASSERT_GT(recorded->transient_failures + recorded->tasks_unanswered, 0u);

  // Round-trip the log through its text form, then replay with no live
  // platform at all: the transcript alone must drive the identical
  // recovery path.
  auto parsed = ParseAnswerLog(SerializeAnswerLog(recorder.log()));
  BAYESCROWD_CHECK_OK(parsed.status());
  ReplayingPlatform replayer(std::move(parsed).value(), nullptr);
  RecordingPlatform rerecorder(replayer);
  BayesCrowd replay_framework(options);
  auto replayed = replay_framework.Run(incomplete, posteriors, rerecorder);
  BAYESCROWD_CHECK_OK(replayed.status());

  ExpectBitIdentical(recorded.value(), replayed.value());
  // Replaying re-records the same transcript, failures and all.
  EXPECT_EQ(SerializeAnswerLog(recorder.log()),
            SerializeAnswerLog(rerecorder.log()));

  // Full telemetry envelopes agree modulo wall-clock timings.
  const obs::JsonValue golden = obs::NormalizeTelemetry(
      RunTelemetryJson("golden", options, recorded.value()));
  const obs::JsonValue again = obs::NormalizeTelemetry(
      RunTelemetryJson("golden", options, replayed.value()));
  EXPECT_EQ(golden.Dump(2), again.Dump(2));
}

}  // namespace
}  // namespace bayescrowd
